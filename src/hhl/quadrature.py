"""Shared numerical integration engine.

Provides adaptive quadrature on bounded intervals, improper integration on
the half-line (0, inf) under the substitution t = e^u with divergence
detection, and symmetric principal-value integration for simple-pole
singularities.  Every panel takes the Gauss-Kronrod 10/21 rule, whose
nodes and weights are a literal table (``_K21``).

Integrand protocol.  ``g`` is called with a 1-d array of abscissas and
returns either an array whose leading axis matches them, or a row-weighted
pair ``(w, P)``: a 1-d weight per abscissa and such an array, meaning
``w[:, None] * P``.  The values may carry extra trailing axes, in which
case the whole integral is computed component-wise (error estimates use
the max-norm across components); this is how the operator transforms
evaluate a single adaptive schedule against a full grid of output points.
A pair is never multiplied out: the panel rule folds ``w`` into its
Kronrod and Gauss weights (``_embedded``) and reduces ``P`` with both in
one dot product, the way QUADPACK's rules meet the integrand values.
``integrate_halfline`` folds its e^u Jacobian into ``w`` too, so a
weighted panel (a kernel weight against a grid of dilated values, a tail
remainder against 1/(x - y)) costs one array, not two.  ``integrate_pv``
adds values at mirrored abscissas and takes plain arrays only.

``integrate`` (one interval) and ``integrate_batched`` (breakpoints) run
one bisection loop, ``_bisect``, with one heap and one stopping test.  It
evaluates ahead: the panels it is bound to split, and the bisections an
endpoint singularity predicts, get their halves from one integrand call,
and the loop replays over them (see its docstring).

Improper integrals (half-line blocks, PV shells) run one block-scan loop,
``_BlockScan.run``, which stops once the blocks are negligible relative to
the running value, as QUADPACK's truncation test does.  What a scan keeps
is then the same at every scale of the integral, so an integrand whose
value at an abscissa depends on the others in its call (a transform that
shares one t-schedule among its points, a cumulative moment) is batched
like any other.
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


# Abscissa-by-component elements per integrand call of ``integrate``'s
# batched splits, as the chunked loops of halfplane and hilbert bound
# theirs.  Batching pays where the per-call cost outweighs the work: a
# scalar integrand gets up to 97 splits per call, while a transform over a
# 256-point group (5,376 elements a panel) keeps one panel per call; at
# 2^16 elements it took 6 splits per call and the sweep suites read 6%
# slower in paired runs.
_BATCH_ELEMENTS = 1 << 12

# Rounding floor of a reported error, per unit of summed panel magnitude
# (QUADPACK's 50 eps); it enters ``error`` only, never the adaptive ledger.
_ROUNDING = 50.0 * np.finfo(float).eps
_NARROW = 8 * np.finfo(float).eps  # ``_too_narrow``'s relative width

# Gauss-Kronrod 10/21 panel rule: the 21-point Kronrod value, with the
# 10-point Gauss rule on its odd-indexed nodes as error reference.  The
# non-negative nodes and weights of Laurie's algorithm (Math. Comp. 66
# (1997) 1133, weights scaled to total mass 2), mirrored so the rule is
# exactly symmetric; the tests check its degree and its Gauss subset.
_K21 = np.array([
    (0.0, 0.14944555400291765),
    (0.14887433898163122, 0.1477391049013378),
    (0.2943928627014604, 0.14277593857705992),
    (0.4333953941292473, 0.1347092173114742),
    (0.5627571346686044, 0.12349197626206561),
    (0.6794095682990242, 0.10938715880229792),
    (0.7808177265864169, 0.09312545458369731),
    (0.8650633666889842, 0.07503967481091972),
    (0.9301574913557082, 0.05475589657435177),
    (0.9739065285171717, 0.03255816230796483),
    (0.995657163025808, 0.011694638867372112),
])
_NODES = np.concatenate((-_K21[:0:-1, 0], _K21[:, 0]))
_W_KRONROD = np.concatenate((_K21[:0:-1, 1], _K21[:, 1]))
_W_GAUSS = np.polynomial.legendre.leggauss(10)[1]
_EVALS_PER_PANEL = _NODES.size
_ROW_GAUSS, _ROW_KRONROD = _W_GAUSS[None, :], _W_KRONROD[None, :]
# both rules as rows over all 21 nodes (Gauss 0 at the Kronrod-only ones),
# for row-weighted panels
_ROWS_21 = np.stack((_W_KRONROD, np.zeros(_NODES.size)))
_ROWS_21[1, 1::2] = _W_GAUSS


def eval_budget() -> int:
    """Per-call evaluation budget; the HHL_BUDGET env var overrides it."""
    raw = os.environ.get("HHL_BUDGET", "").strip()
    if not raw:
        return DEFAULT_BUDGET
    try:
        budget = int(raw)
    except ValueError:
        budget = 0
    if budget <= 0:
        raise ValueError(f"HHL_BUDGET must be a positive integer, got {raw!r}")
    return budget


@dataclass(frozen=True)
class QuadResult:
    """Value of an integral with an absolute error estimate.

    ``value`` is a float, complex, or ndarray (component-wise integrals).
    ``error`` is the max-norm error estimate: the panel estimates, also of
    panels too narrow to refine, plus the blocks a scan stopped on and a
    rounding floor.  ``evaluations`` counts integrand abscissas, and
    ``diverges`` marks a detected divergent improper integral (value is
    then +-inf).
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
    if isinstance(v, float):  # real only: abs() of a complex scalar
        return float(abs(v))  # can differ from np.abs by an ulp
    a = np.abs(v)
    return float(a.max()) if a.size else 0.0


def _rule(row, vals):
    """``np.tensordot(row[0], vals, axes=(0, 0))`` as the one ``np.dot``
    call tensordot makes, without its wrapper's per-call cost: same
    operands, bit-identical result."""
    return np.dot(row, vals.reshape(row.shape[1], -1)).reshape(vals.shape[1:])


def _embedded(out, half):
    """Kronrod value and error estimate |K21 - G10| of one panel of
    half-width ``half`` from the integrand's output at its ``_NODES``:
    values (leading axis), or a pair (w, P).  A pair's weights ``w`` fold
    into both rule rows, which meet P in one dot product: P is read once,
    and never copied or multiplied out (a complex P with real weights
    through its real view, a real product of twice the width)."""
    if isinstance(out, tuple):
        vals = np.asarray(out[1])
        rows = _ROWS_21 * np.asarray(out[0])
        flat = vals.reshape(_NODES.size, -1)
        if flat.dtype.kind == "c" and rows.dtype.kind != "c":
            # real rows meet a complex panel through its real view: one real
            # product, not a complex one against rows cast to complex
            both = np.dot(rows, np.ascontiguousarray(flat).view(float)).view(complex)
        else:
            both = np.dot(rows, flat)
        both *= half
        kronrod, gauss = both.reshape(2, *vals.shape[1:])
    else:
        # plain values keep one dot per rule, whose bits are tensordot's;
        # the stacked product rounds differently
        vals = np.asarray(out)
        gauss = _rule(_ROW_GAUSS, vals[1::2]) * half
        kronrod = _rule(_ROW_KRONROD, vals) * half
    return kronrod, _abs_max(kronrod - gauss)


def _too_narrow(a: float, b: float) -> bool:
    """[a, b] cannot be bisected at double precision: its width is a few
    ulps of its endpoints.  The absolute floor lies far below any abscissa
    in use, so panels next to 0 keep refining toward an endpoint
    singularity."""
    return b - a <= _NARROW * max(abs(a), abs(b), 1e-290)


def _panel(g, a: float, b: float):
    """(value, error) of the Gauss-Kronrod rule on [a, b] from one call of
    ``g`` with its 21 abscissas."""
    half = 0.5 * (b - a)
    return _embedded(g(0.5 * (a + b) + half * _NODES), half)


def _collect(segments):
    """Sum of the segment values in canonical (left endpoint) order, and
    the rounding floor of that sum's error."""
    segments = sorted(segments, key=lambda s: (s[0], s[1]))
    vals = [s[2] for s in segments]
    rounding = _ROUNDING * sum(_abs_max(v) for v in vals)
    if len(vals) == 1:
        return vals[0], rounding
    return np.sum(np.stack([np.asarray(v) for v in vals]), axis=0), rounding


def integrate(g, a: float, b: float, tol: float = 1e-9,
              budget: int | None = None) -> QuadResult:
    """Adaptive quadrature of ``g`` over the bounded interval [a, b].

    Bisects the interval with the worst local error estimate until the
    summed estimate drops below ``tol`` (absolute).  Endpoint
    singularities that are integrable are handled by the open node set.

    Raises BudgetError (carrying the partial result) if the evaluation
    budget runs out first.  The loop is ``_bisect``.
    """
    if not (a < b):
        raise ValueError(f"empty interval [{a}, {b}]")
    if tol <= 0:
        raise ValueError("tol must be positive")
    budget = eval_budget() if budget is None else budget
    return _bisect(g, [(a, b, *_panel(g, a, b))], tol, budget)


def _bisect(g, seeds, tol: float, budget: int) -> QuadResult:
    """The bisection loop of ``integrate`` and ``integrate_batched``, over
    the consecutive intervals ``seeds``: (a, b, value, error) of each, its
    first panel evaluated by the caller.  One heap holds every interval.

    Batched splits: intervals leave the heap in descending error order,
    so the loop cannot stop while the largest errors summing to (summed
    estimate - tol) are in it; unless its noise-floor guard or the budget
    ends it first, it splits each of those intervals.  When the interval
    it pops has no known halves, one call of ``g`` evaluates its halves
    and those of the intervals that follow it in that set and have none
    yet.

    Endpoint chain: an integrable singularity at an end of the range
    costs one bisection per level there.  So when the popped interval
    touches an end, its error is 1/4 to 1 times its parent's, that ratio
    is at least 0.9 times the parent's own, and its sibling holds at most
    1/4 of its error, the same call also evaluates the bisections toward
    that end that the ratio predicts it needs to reach ``tol``.

    A call holds at most ``_BATCH_ELEMENTS`` abscissa-by-component
    elements and never more splits than the budget has left; an integrand
    too wide for one split per call gets one panel per call.  The loop
    then replays unchanged over the known halves, so for a pointwise
    integrand value, error, evaluation count and a BudgetError's partial
    result are bit-identical to one call per panel; halves evaluated for
    a loop that stops early are not counted.
    """
    lo, hi = seeds[0][0], seeds[-1][1]
    evals = _EVALS_PER_PANEL * len(seeds)
    # heap entries: (-error, seq, a, b, value, error / parent's error,
    # whether a pop starts an endpoint chain); seq makes ordering total
    heap = [(-e, seq, a, b, v, math.nan, False)
            for seq, (a, b, v, e) in enumerate(seeds)]
    heapq.heapify(heap)
    seq = len(seeds)
    done = []  # intervals too narrow to split further
    total_err = sum(e for *_, e in seeds)
    frozen_err = 0.0  # their errors: out of the ledger, still reported
    best_err = total_err
    stale = 0
    # splits per integrand call: as many panel pairs as _BATCH_ELEMENTS
    # holds, none for integrands too wide for one pair
    pairs = _BATCH_ELEMENTS // (2 * _EVALS_PER_PANEL * max(np.size(seeds[0][2]), 1))
    ahead = {}  # (a, b) -> its halves' (value, error), evaluated ahead

    while total_err > tol and heap:
        if evals + 2 * _EVALS_PER_PANEL > budget:
            value, rounding = _collect([(e[2], e[3], e[4]) for e in heap] + done)
            partial = QuadResult(value, total_err + frozen_err + rounding, evals)
            raise BudgetError(
                f"quadrature budget {budget} exhausted on [{lo}, {hi}] "
                f"(error estimate {total_err:.3e} > tol {tol:.3e})",
                partial)
        neg_e, _, ia, ib, ival, ratio, chain = heapq.heappop(heap)
        if _too_narrow(ia, ib):
            # cannot be refined at double precision; freeze it
            done.append((ia, ib, ival))
            total_err += neg_e  # removes its error from the ledger
            frozen_err -= neg_e
            continue
        mid = 0.5 * (ia + ib)
        if not pairs:
            (v1, e1), (v2, e2) = _panel(g, ia, mid), _panel(g, mid, ib)
        else:
            if (ia, ib) not in ahead:
                # the intervals with the largest errors summing to
                # total_err - tol, which the loop must split (see above)
                need = total_err - tol + neg_e
                limit = min(pairs, (budget - evals) // (2 * _EVALS_PER_PANEL))
                split = [(ia, ib)]
                for ne, _, ja, jb, *_ in heapq.nsmallest(limit - 1 + len(ahead), heap):
                    if need <= 0 or len(split) == limit:
                        break
                    need += ne
                    if (ja, jb) not in ahead and not _too_narrow(ja, jb):
                        split.append((ja, jb))
                if chain:
                    # the end panel's error shrinks by ``ratio`` per level
                    levels = math.ceil(math.log(-neg_e / tol) / -math.log(ratio)) - 1
                    ca, cb = ia, ib
                    for _ in range(min(levels, limit - len(split))):
                        ca, cb = (ca, 0.5 * (ca + cb)) if ia == lo else (0.5 * (ca + cb), cb)
                        if _too_narrow(ca, cb):
                            break
                        split.append((ca, cb))
                halves = [h for ja, jb in split
                          for h in ((ja, 0.5 * (ja + jb)), (0.5 * (ja + jb), jb))]
                estimates = _panel_batch(g, halves)
                ahead.update(zip(split, zip(estimates[::2], estimates[1::2])))
            (v1, e1), (v2, e2) = ahead.pop((ia, ib))
        evals += 2 * _EVALS_PER_PANEL
        total_err += neg_e + e1 + e2
        for ja, jb, v, e, e_sib in ((ia, mid, v1, e1, e2), (mid, ib, v2, e2, e1)):
            r = -e / neg_e if neg_e else math.nan
            chain = ((ja == lo or jb == hi) and 0.25 <= r < 1.0
                     and r >= 0.9 * ratio and e_sib <= 0.25 * e)
            seq += 1
            heapq.heappush(heap, (-e, seq, ja, jb, v, r, chain))
        # noise-floor guard: interpolated data carries an estimator floor
        # refinement cannot beat; stop once splits no longer pay
        if total_err < best_err * (1.0 - 1e-3):
            best_err = total_err
            stale = 0
        else:
            stale += 1
            if stale >= 24:
                break

    value, rounding = _collect([(e[2], e[3], e[4]) for e in heap] + done)
    return QuadResult(value, max(total_err, 0.0) + frozen_err + rounding, evals)


class _BlockScan:
    """Running sum of the blocks of one improper integral: values, summed
    error and evaluation count, against an evaluation budget."""

    def __init__(self, budget: int):
        self.budget = budget
        self.singles = []  # blocks of one value, summed pairwise by total()
        self.running = 0.0
        self.err = 0.0
        self.evals = 0

    def add(self, res: QuadResult) -> float:
        """Fold in one block; returns the max-norm of the running sum."""
        if np.size(res.value) <= 1:
            self.singles.append(res.value)
        self.running = self.running + res.value
        self.err += res.error
        self.evals += res.evaluations
        return _abs_max(self.running)

    def total(self):
        # np.sum of stacked blocks of two or more values adds them in order
        # from 0.0, which is the running sum bit for bit
        return np.sum(np.stack(self.singles), axis=0) if self.singles else self.running

    def run(self, h, blocks, tol: float):
        """Integrate ``h`` over the (lo, hi) ``blocks`` in order until the
        contributions die out.

        Returns (diverged, live): ``live`` is the size of the last block
        when the sequence ran out before the scan went quiet, else 0.
        Stopping: two consecutive blocks at most tol/16 of the running
        value's max-norm (a relative rule at every scale, with a floor at
        1e-300 so a scan of zeros stops); their sizes join ``err`` as the
        bound on the rest left out.
        Divergence: the running total grows by >= 1+1e-3 and block
        contributions fail to decay, eight blocks in a row.
        """
        quiet = grow = 0
        prev_total = prev_block = blk = 0.0
        for lo, hi in blocks:
            left = self.budget - self.evals
            if left <= 2 * _EVALS_PER_PANEL:
                raise BudgetError(f"block-scan budget {self.budget} exhausted",
                                  QuadResult(self.total(), self.err, self.evals))
            res = integrate(h, lo, hi, tol=tol / 16.0, budget=left)
            running = self.add(res)
            blk = _abs_max(res.value)

            if prev_total > 0:
                grew = running >= prev_total * (1.0 + 1e-3)
                undamped = blk >= prev_block * (1.0 - 1e-3)
                grow = grow + 1 if (grew and undamped) else 0
                if grow >= 8:
                    return True, 0.0

            if blk <= max(tol * running / 16.0, 1e-300):
                quiet += 1
                if quiet >= 2:
                    self.err += prev_block + blk
                    return False, 0.0
            else:
                quiet = 0
            prev_total = running
            prev_block = blk
        return False, blk


def _dyadic_blocks(u0: float, u_end: float, direction: int):
    """u-blocks of width 1, 2, 4, ... from u0 toward u_end (direction +-1),
    clipped at the exponent cap; built in v = direction * u."""
    v, end = direction * u0, min(direction * u_end, _U_CAP)
    width = 1.0
    while v < end:
        nxt = min(v + width, end)
        yield tuple(sorted((direction * v, direction * nxt)))
        v = nxt
        width *= 2.0


def integrate_halfline(g, tol: float = 1e-9, budget: int | None = None,
                       support: tuple[float, float] = (0.0, math.inf)) -> QuadResult:
    """Improper integral of ``g`` over (lo, hi) inside (0, inf).

    Works in u = log t: the central block around the support anchor is
    integrated first, then dyadic blocks expand toward both ends, each
    truncated once contributions fall below tol relative to the running
    estimate.  A running total that keeps growing block over block is
    reported as divergent (QuadResult.diverges, value +inf) rather than
    raising; callers decide whether divergence is an error.  A scan cut
    off at the exponent cap with contributions still live adds its last
    block to ``error``.

    The Jacobian dt = t du joins the row weights of ``g``'s output (unit
    weights for a plain array), so no panel is multiplied by it.
    """
    lo, hi = support
    if lo < 0 or hi <= lo:
        raise ValueError(f"support must satisfy 0 <= lo < hi, got {support}")
    budget = eval_budget() if budget is None else budget

    def h(us):
        ts = np.exp(us)
        out = g(ts)
        w, vals = out if isinstance(out, tuple) else (1.0, out)
        return np.asarray(w) * ts, vals

    u_lo = -math.inf if lo == 0.0 else math.log(lo)
    u_hi = math.inf if math.isinf(hi) else math.log(hi)
    scan = _BlockScan(budget)

    # anchor block: a unit-scale block inside [u_lo, u_hi], near u = 0
    # when the window allows it, else hugging the nearest finite end
    a0 = min(max(-1.0, u_lo), max(u_hi - 1.0, u_lo))
    b0 = min(a0 + 2.0, u_hi)
    a0 = min(max(a0, -_U_CAP), _U_CAP - 1.0)
    b0 = min(max(b0, a0 + 1e-12), _U_CAP)
    scan.add(integrate(h, a0, b0, tol=tol / 4.0, budget=budget))

    div_up, live_up = scan.run(h, _dyadic_blocks(b0, u_hi, +1), tol)
    div_dn, live_dn = scan.run(h, _dyadic_blocks(a0, u_lo, -1), tol)
    if div_up or div_dn:
        return QuadResult(math.inf, math.inf, scan.evals, diverges=True)
    # a live last block only counts as truncation at the cap; a finite
    # support end closes the integral exactly
    trunc_up = live_up if u_hi >= _U_CAP else 0.0
    trunc_dn = live_dn if u_lo <= -_U_CAP else 0.0
    return QuadResult(scan.total(), scan.err + trunc_up + trunc_dn, scan.evals)


def integrate_pv(g, x0: float, a: float, b: float, tol: float = 1e-9,
                 budget: int | None = None) -> QuadResult:
    """Principal value of ``g`` over [a, b] with a simple pole at x0.

    The symmetric part pairs nodes x0 +- s so the pole cancels
    analytically; the leftover one-sided remainder is ordinary quadrature.
    Shells [s0 2^-(k+1), s0 2^-k] shrinking toward the pole are scanned
    like half-line blocks; a running total that keeps growing with
    undamped shells signals a non-cancelling singularity and raises
    DivergenceError.  A scan that uses up its 200 shells while they are
    still live adds the last one to ``error``.  ``g`` returns plain arrays:
    the shells add its values at mirrored abscissas, and a row-weighted
    pair raises TypeError.
    """
    if not (a < x0 < b):
        raise ValueError(f"x0={x0} must lie strictly inside [{a}, {b}]")
    budget = eval_budget() if budget is None else budget
    s0 = min(x0 - a, b - x0)

    # offsets are rounded on the side of x0 away from zero, whose binade is
    # the coarser, so both x0 + s and x0 - s are exact and pair up without
    # rounding drift (which reads as a non-decaying shell)
    away = 1.0 if x0 >= 0 else -1.0

    def plain(out):
        if isinstance(out, tuple):
            raise TypeError("integrate_pv takes plain arrays, not (w, P) pairs")
        return np.asarray(out)

    def sym(ss):
        ss = away * ((x0 + away * ss) - x0)
        return plain(g(x0 + ss)) + plain(g(x0 - ss))

    scan = _BlockScan(budget)
    shells = ((math.ldexp(s0, -k - 1), math.ldexp(s0, -k)) for k in range(200))
    diverged, live = scan.run(sym, shells, tol)
    if diverged:
        raise DivergenceError(
            f"principal value at x0={x0} does not cancel: shell "
            f"contributions near the pole are not decaying")
    total = scan.total()
    err = scan.err + live
    evals = scan.evals

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


def geometric_panels(scale: float, outer: float):
    """Breakpoints 0, s, 2s, 4s, ... toward ``outer`` for graded panels.

    ``scale`` is the smallest feature width the integrand carries; panels
    double from max(1e-12, scale/64) so power-law profiles see a bounded
    number of nodes per octave.
    """
    if outer <= 0:
        raise ValueError("outer must be positive")
    return [0.0] + doubling_panels(max(1e-12, min(scale, outer) / 64.0), outer)


def _panel_batch(g_batch, pending):
    """Embedded-rule (value, error) of every panel in ``pending`` from one
    call of ``g_batch``."""
    mids = np.array([0.5 * (a + b) for a, b in pending])
    halfs = np.array([0.5 * (b - a) for a, b in pending])
    xs = (mids[:, None] + halfs[:, None] * _NODES[None, :]).ravel()
    out = g_batch(xs)
    w, vals = out if isinstance(out, tuple) else (None, out)
    vals = np.asarray(vals)
    shape = (len(pending), _EVALS_PER_PANEL)
    parts = vals.reshape(*shape, *vals.shape[1:])
    if w is not None:
        parts = zip(np.reshape(w, shape), parts)
    return [_embedded(part, half) for part, half in zip(parts, halfs)]


def integrate_batched(g_batch, panels, tol: float = 1e-9,
                      budget: int | None = None) -> QuadResult:
    """Adaptive quadrature of ``g_batch`` over the breakpoints ``panels``.

    ``integrate``'s loop, seeded with every panel: one call of ``g_batch``
    evaluates the first panels, and the bisection loop then runs over all
    of them with one heap and one stopping test (summed estimate below
    ``tol``).  Raises BudgetError if the first panels alone exceed the
    budget.
    """
    if tol <= 0:
        raise ValueError("tol must be positive")
    budget = eval_budget() if budget is None else budget
    intervals = [(panels[i], panels[i + 1]) for i in range(len(panels) - 1)
                 if panels[i + 1] > panels[i]]
    if not intervals:
        raise ValueError("need at least one non-empty panel")
    if _EVALS_PER_PANEL * len(intervals) > budget:
        raise BudgetError(f"budget {budget} is below {len(intervals)} first panels",
                          QuadResult(0.0, math.inf, 0))
    estimates = _panel_batch(g_batch, intervals)
    return _bisect(g_batch, [(a, b, v, e) for (a, b), (v, e)
                             in zip(intervals, estimates)], tol, budget)
