"""The averaging transform on lines and on the half-plane, with the
sharp-norm verification machinery.

The transform is (T_phi f)(x) = integral of f(x/t) phi(t)/t dt over
(0, inf) for a nonnegative weight phi.  On the line it takes any
vectorized function of a real variable; applied to holomorphic functions
it keeps the argument in the upper half-plane (Im(z/t) = y/t > 0).  Its
operator norm on the p-scale is exactly the kernel moment integral of
t^(1/p-1) phi(t); the machinery here witnesses that constant from below
with a Rayleigh sweep over the extremizer family (z + i*sigma)^(-1/p-eps),
and on the line with the power families |x|^(-1/p+-eps), and measures how
the slices approach the boundary-value identity (T f)* = T(f*).  On the
axis the sweep's numerators are convolutions in log|x|: for 1 < p < inf
one FFT convolution per member on a log grid weighted by |x|^c (one sign,
doubled); otherwise, or when the grid refuses the kernel, the adaptive
t-quadrature of the whole ``CayleyFamily`` at once, whose integrand is the
row-weighted pair (phi(t)/t, f(z/t)).
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from .halfplane import CayleyFamily, CayleyPower, HoloFunction, slice_norm
from .kernels import Kernel, cumulative_moment, eval_kernel, moment
from .quadrature import (DivergenceError, doubling_panels, integrate_batched,
                         integrate_halfline)
from .realline import _TAIL_UMAX, _spline, _tail_integral, lp_norm_function

__all__ = [
    "transform_values",
    "KernelImage",
    "SweepResult",
    "WindowTooSmallError",
    "norm_lower_bound_sweep",
    "lp_lower_bound_sweep",
    "boundary_identity_check",
]

# output points per adaptive t-schedule
_GROUP = 256


class WindowTooSmallError(ValueError):
    """The tail closure cannot resolve the power tail for this epsilon."""


def transform_values(k: Kernel, f_of, zs, tol: float = 1e-10,
                     budget: int | None = None) -> np.ndarray:
    """(T_phi f)(z) for an array of points, real or complex.

    The points are sorted by |z| (ties by value) and cut into contiguous
    groups of at most 256; each group gets its own adaptive schedule in t,
    so the schedule refines only for the scales its points share, and
    node-by-group intermediates stay small.  A point's value depends on
    the set of points passed, never on their order.  ``f_of`` must be
    vectorized over arbitrary-shape arrays; its values may carry trailing
    axes (a family of functions, such as ``CayleyFamily``), which the
    quadrature integrates component-wise under one schedule with a
    max-norm error, and the result has shape zs.shape + those axes.

    Dilation multiplies by the reciprocal row 1/t, which for a real t is
    complex division by t bit for bit; the kernel row phi(t)/t and that
    reciprocal are computed once per panel and run (``_kernel_row``).
    """
    zs = np.asarray(zs)
    scalar = zs.ndim == 0
    zs = np.atleast_1d(zs)
    out = None
    order = np.lexsort((zs.imag, zs.real, np.abs(zs)))
    for start in range(0, zs.size, _GROUP):
        idx = order[start:start + _GROUP]
        group = zs[idx]

        def integrand(ts):
            weight, inverse = _kernel_row(k.fn, k.support, ts.tobytes())
            with np.errstate(over="ignore"):
                args = group[None, :] * inverse
            return weight, np.asarray(f_of(args), dtype=complex)

        res = integrate_halfline(integrand, tol=tol, budget=budget,
                                 support=k.support)
        if res.diverges:
            probe = np.abs(np.asarray(f_of(group))).reshape(group.size, -1)
            worst = group[int(np.argmax(probe.max(axis=1)))]
            raise DivergenceError(
                f"transform integral diverges near output point {worst}")
        if out is None:
            out = np.empty(zs.shape + np.shape(res.value)[1:], dtype=complex)
        out[idx] = res.value
    if out is None:  # no points
        return np.empty(zs.shape, dtype=complex)
    if scalar:
        return complex(out[0]) if out.ndim == 1 else out[0]
    return out


@functools.lru_cache(maxsize=1024)
def _kernel_row(fn, support, key: bytes):
    """(phi(t)/t, column of 1/t), read-only, at the abscissas packed in
    ``key`` for the profile ``fn`` on ``support``: keyed by the profile, as
    Kernels with different profiles compare equal."""
    ts = np.frombuffer(key)
    weight = eval_kernel(Kernel("row", "", fn, support), ts) / ts
    inverse = (1.0 / ts)[:, None]
    weight.flags.writeable = inverse.flags.writeable = False
    return weight, inverse


# Log-grid (Mellin) convolution.  With x = +-e^s and t = e^u the transform
# is T f(+-e^s) = integral of F(s - u) phi(e^u) du, F(w) = f(+-e^w): one
# convolution per sign.  F is sampled at the grid's m nodes on w in
# [-half, half) (w = 0 a node) and read as piecewise linear, a product rule
# whose error is c*delta^2 plus higher order.  The same rule on the
# every-other-node half grid (spacing 2*delta, w = 0 still a node) has
# error 4*c*delta^2, so Richardson's (4*T_M - T_(M/2))/3 cancels the
# leading term: fourth order for smooth F when phi is smooth between nodes
# (cesaro's jump at u = 0 is one), delta^2.5 at a (1 - t)^(-1/2) end.
_LOG_NEGLIGIBLE = 1e-12
_GAUSS8 = np.polynomial.legendre.leggauss(8)


class _LogGrid(NamedTuple):
    """m nodes on w in [-half, half), delta = 2*half/m (m even, half whole,
    so node delta*j divides back to j), for kernels whose reach (the u past
    which their mass is negligible) is at most ``reach``; the Mellin weight
    c takes the kernel as phi(t) t^c, so as |x|^c T_phi f = T_(phi*t^c)[f
    |x|^c] a caller passing f |x|^c reads |x|^c T_phi f, and f may decay as
    slowly as |x|^-c' for c' > c.  ``_hat_weights`` samples the kernel
    ``block`` cells at a time.  The default is ``commute``'s grid, where
    every kernel is one block: its 4 MB of temporaries set glibc's mmap
    threshold for the FFTs after them."""

    m: int = 1 << 13
    half: float = 40.0
    reach: float = 34.0
    weight: float = 0.0
    block: int = 1 << 15

    @property
    def delta(self) -> float:
        return 2.0 * self.half / self.m


def _hat_edges(k: Kernel, grid: _LogGrid = _LogGrid()) -> np.ndarray:
    """Cell edges of ``_hat_weights``: [a, the grid nodes strictly inside
    (a, b), b] for the log-support [a, b] of k clipped to
    [-2*half, 2*half], with the end cell at a finite support end graded
    geometrically toward it (the points end -+ delta*2^-j, j = 1..40,
    that fall inside it); sorted and distinct by construction, empty when
    [a, b] is."""
    d, span = grid.delta, 2.0 * grid.half
    lo, hi = k.support
    a = max(-span, math.log(lo)) if lo > 0 else -span
    b = min(span, math.log(hi))
    if a >= b:
        return np.empty(0)
    nodes = d * np.arange(math.ceil(a / d), math.floor(b / d) + 1)
    nodes = nodes[(nodes > a) & (nodes < b)]
    grade = d * 0.5 ** np.arange(1, 41)
    ends = []
    if lo > 0 and a == math.log(lo):
        ends.append(a + grade)
    if b == math.log(hi):
        ends.append(b - grade)
    # the ends' points sorted, repeats dropped (rounding makes neighbours equal
    # far from u = 0) without np.unique, which imports numpy.ma; the end cells
    # are (a, first node) and (last node, b), all of (a, b) with no node inside
    graded = np.sort(np.concatenate([np.empty(0)] + ends))
    graded = graded[np.diff(graded, prepend=-math.inf) > 0]
    first, last = (nodes[0], nodes[-1]) if nodes.size else (b, b)
    graded = graded[(graded > a) & (graded < b) & ((graded < first) | (graded > last))]
    lower = graded < first
    return np.concatenate(([a], graded[lower], nodes, graded[~lower], [b]))


def _hat_weights(k: Kernel, grid: _LogGrid = _LogGrid()) -> tuple:
    """(W, W2): W_j = integral of phi(e^u) times the hat of half-width
    delta centred at u = j*delta, for j = -m..m (u in [-2*half, 2*half]);
    W2 the same on the half grid, hats of half-width 2*delta centred at
    u = 2j*delta, for j = -m/2..m/2.

    Product integration: an 8-point Gauss rule per cell of ``_hat_edges``,
    whose cells split at the log of a support end and grade toward it, so
    any kernel kind works.  Every hat of either grid is linear on each
    cell, so one set of kernel samples serves both, taken ``grid.block``
    cells at a time: each cell's node masses are row sums, binned at once.
    """
    d, m = grid.delta, grid.m
    edges = _hat_edges(k, grid)
    left, width = edges[:-1], np.diff(edges)
    gx, gw = _GAUSS8
    steps = (d, 2.0 * d)
    sums = np.empty((2, 2, left.size))  # per grid, cell masses on its left and right node
    for rows in (slice(i, i + grid.block) for i in range(0, left.size, grid.block)):
        u = left[rows, None] + 0.5 * width[rows, None] * (gx + 1.0)
        mass = eval_kernel(k, np.exp(u))
        if grid.weight:
            mass *= np.exp(grid.weight * u)
        mass *= 0.5 * width[rows, None] * gw
        for h, (to_left_sum, to_right_sum) in zip(steps, sums):
            # the cell-by-node products run in place (each a commuted
            # product of the same operands), so fewer temporaries are live
            frac = u / h
            frac -= np.floor(left[rows, None] / h)  # place inside the grid cell, 0..1
            to_left = 1.0 - frac
            to_left *= mass
            frac *= mass  # now the mass on the right node
            np.sum(to_left, axis=1, out=to_left_sum[rows])
            np.sum(frac, axis=1, out=to_right_sum[rows])
    weights = []
    for h, n, (to_left_sum, to_right_sum) in zip(steps, (m, m // 2), sums):
        idx = np.floor(left / h).astype(int) + n
        weights.append(np.bincount(idx, to_left_sum, minlength=2 * n + 1))
        weights[-1] += np.bincount(idx + 1, to_right_sum, minlength=2 * n + 1)
    return tuple(weights)


def _log_grid_kernel(k: Kernel, grid: _LogGrid = _LogGrid()):
    """(k, reach u past which its mass is negligible, spectra) for
    ``_log_grid_transform`` on ``grid``, ``spectra`` the real transforms of
    the hat weights W[:2m] and W2[:m] of its two grids, computed once per
    kernel; ValueError when the reach passes the grid's, or when a weighted
    kernel has not decayed at the grid's low end (phi ~ t^e, e + c <= 0)."""
    d, m = grid.delta, grid.m
    weights, half = _hat_weights(k, grid)
    beyond = np.cumsum(weights[::-1])[::-1]  # weight mass from index i on
    if grid.weight and weights[0] > _LOG_NEGLIGIBLE * beyond[0]:
        raise ValueError(f"weighted kernel mass at t = e^-{2 * grid.half:g} is "
                         f"{weights[0] / beyond[0]:.2e} of the total, not negligible")
    live = np.flatnonzero(beyond > _LOG_NEGLIGIBLE * beyond[0])
    reach = (live[-1] - m) * d if live.size else 0.0
    if reach > grid.reach:
        far = beyond[m + int(grid.reach / d) + 1] / beyond[0]
        raise ValueError(f"kernel mass past t = e^{grid.reach:g} is "
                         f"{far:.2e} of the total; the log grid would "
                         f"truncate it")
    return k, reach, (np.fft.rfft(weights[:2 * m]), np.fft.rfft(half[:m]))


def _log_grid_transform(kernels, f_of, xs, grid: _LogGrid = _LogGrid()):
    """(T_phi f)(x) at real points x by FFT convolution, one array per
    ``_log_grid_kernel`` entry in ``kernels`` (all built on ``grid``): F is
    sampled once per sign at the m nodes, and F and its every-other-node
    half F[::2] are transformed once per sign for all kernels, so the half
    grid costs no extra call of ``f_of``.  ``xs`` None reads x = e^w at the
    half grid's nodes w >= max reach - half, and returns (w, the list).

    On each grid, product integration of phi against the piecewise-linear
    model of F(w) = f(+-e^w), read off at log|x| by a cubic spline on that
    grid (or at its nodes); the result is (4*T_M - T_(M/2))/3.  On a grid
    of n nodes the kept window [n, 2n) of the convolution reads only
    W[1..2n-1], so a circular one of length 2n against W[:2n] has no
    wrap-around there (overlap-save).  Each spline is fitted on the cells
    the points read plus a 40-node margin of its grid, past the 30-node
    reach of its Green's cut and end modes, so those cells get the whole
    grid's fit's coefficients.  On smooth decaying inputs, values on the
    default grid agree with ``transform_values`` to about 1.3e-9 of their
    maximum for cesaro, hardy and gencesaro(2), and to about 2e-7 for
    gencesaro(0.5), whose end singularity leaves a delta^2.5 term.  Raises
    ValueError instead of truncating: when F has not decayed at the
    large-|x| end, and when an output point lies off the grid: |x| >=
    e^half, or |x| below e^(reach - half), with a reach of 0 for kernels
    supported in (0, 1] and about 27.6 for hardy (|x| >= 4.2e-6 on the
    default grid).
    """
    d, m = grid.delta, grid.m
    ws = -grid.half + d * np.arange(m)
    at_nodes = xs is None
    if at_nodes:  # x > 0 only
        first = int(np.searchsorted(ws[::2], max(r for _, r, _ in kernels) - grid.half))
        s = ws[::2][first:]
        xs = np.ones(s.shape)
    else:
        xs = np.asarray(xs, dtype=float)
        with np.errstate(divide="ignore"):
            s = np.log(np.abs(xs))
        for k, reach, _ in kernels:
            if not np.all((s >= reach - grid.half) & (s <= grid.half - d)):
                raise ValueError("output point off the log grid: |x| must lie in "
                                 f"[{math.exp(reach - grid.half):.3g}, "
                                 f"{math.exp(grid.half - d):.3g}] for {k.label}")
    outs = [np.zeros(xs.shape, dtype=complex) for _ in kernels]
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
        # a complex F is convolved as its real and imaginary parts
        vals = [[None, None] for _ in kernels]  # per kernel, per grid
        for part in (F.real, F.imag) if F.imag.any() else (F.real,):
            for i, (n, h) in enumerate(((m, d), (m // 2, 2.0 * d))):
                if at_nodes:
                    lo, hi = first << (1 - i), n
                else:
                    cells = np.clip(np.floor((s[side] - ws[0]) / h), 0, n - 2)
                    lo, hi = max(int(cells.min()) - 40, 0), min(int(cells.max()) + 42, n)
                spec = np.fft.rfft(part[::i + 1], 2 * n)
                for v, (_, _, spectra) in zip(vals, kernels):
                    conv = np.fft.irfft(spec * spectra[i], 2 * n)[lo + n:hi + n]
                    # at the nodes a copy, so that the transform's buffer goes
                    read = conv[::2 - i].copy() if at_nodes else \
                        _spline(ws[0] + h * lo, h, conv)(s[side])
                    v[i] = read if v[i] is None else v[i] + 1j * read
                    del conv
                del spec  # before the next one is made
        for out, (t, t2) in zip(outs, vals):
            out[side] = (4.0 * t - t2) / 3.0
    return (s, outs) if at_nodes else outs


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
        # kernel mass phi ~ t^e at t -> inf carries the base's bulk out to
        # |x| ~ t, so the image decays no faster than |x|^e (per member of
        # a family base)
        beta, e = self.base.tail_power, self.kernel.inf_exponent
        return beta if beta is None or e is None else np.minimum(beta, -e)

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
        return flat.reshape(z.shape + flat.shape[1:])


# ---------------------------------------------------------------------------
# Rayleigh sweep


@dataclass(frozen=True)
class SweepResult:
    """Rayleigh quotients against the sharp constant.

    ``best`` is the largest quotient, the witnessed lower bound.  Whether
    the quotients sit under the moment (the proven upper bound) is for the
    report rows to judge, so an excess fails its row rather than the suite.
    """

    p: float
    epsilons: tuple
    quotients: tuple
    moment: float
    family: str = ""

    def __post_init__(self):
        eps = self.epsilons
        if any(eps[i] <= eps[i + 1] for i in range(len(eps) - 1)):
            raise ValueError("epsilons must be strictly decreasing")

    @property
    def best(self) -> float:
        return max(self.quotients)


def _extremizer(k: Kernel, p: float, eps: float):
    """The sweep test function for one epsilon.

    Kernels supported in (0, 1] use the unit-shift family; kernels with
    mass at large t need the shift to shrink with epsilon (valid for
    eps < 1 - 1/p).  At p = 1 with unbounded-support mass the fixed
    inverse square (z + i)^-2 stands in (non-sharp witness), as the
    Cayley power it is, so every extremizer is a ``CayleyFamily`` member.
    """
    compact = k.support[1] <= 1.0
    if compact:
        return CayleyPower(1.0 / p + eps, 1.0), "unit-shift"
    if p > 1:
        if not (0 < eps < 1.0 - 1.0 / p):
            raise ValueError(
                f"eps={eps} outside (0, {1 - 1/p:g}) for the shrinking-shift family")
        return CayleyPower(1.0 / p + eps, eps), "shrinking-shift"
    return CayleyPower(2.0, 1.0), "fixed-witness"


def norm_lower_bound_sweep(k: Kernel, p: float, epsilons,
                           L: float = 1e4) -> SweepResult:
    """Rayleigh quotients of the transform over the extremizer family.

    For each epsilon the quotient is |T f_eps| / |f_eps| in the Hardy
    norm.  The extremizers and their images extend continuously to the
    axis, and Poisson convolution is an L^p contraction, so the slice
    norms rise as y -> 0 and the norm is the boundary slice's: by
    (T f)* = T(f*) it is a transform on the real axis.  All epsilons are
    one ``CayleyFamily`` (distinct extremizers once each); the
    denominators are one ``slice_norm`` of it.  For 1 < p < inf the
    numerators come from the weighted log grid (``_grid_numerators``).  At
    p = 1, and where that grid refuses the kernel or p, they are one
    ``slice_norm`` of the family's image on the window [-L, L] plus closed
    tails, under one quadrature schedule with a max-norm error; ``L`` is
    read only there.  Quotients approach the moment from below as
    epsilon shrinks.
    """
    if math.isinf(p) or p < 1:
        raise ValueError("sweep requires p in [1, inf)")
    eps_list = tuple(float(e) for e in epsilons)
    m = moment(k, p)
    if not m.finite:
        raise ValueError("sweep requires a finite moment (bounded operator)")
    _check_window(p, min(eps_list))
    picks = [_extremizer(k, p, eps) for eps in eps_list]
    members = tuple(dict.fromkeys(f for f, _ in picks))
    family = CayleyFamily(members)
    num = _grid_numerators(k, p, members) if p > 1 else None
    if num is None:
        num = slice_norm(KernelImage(kernel=k, base=family, tol=1e-10), 0.0, p, L,
                         tol=1e-10)
    den = slice_norm(family, 0.0, p, L, tol=1e-10)
    ratio = [float(n) / float(d) for n, d in zip(num, den)]
    quotients = tuple(ratio[members.index(f)] for f, _ in picks)
    return SweepResult(p=p, epsilons=eps_list, quotients=quotients,
                       moment=m.value, family=picks[-1][1])


_SWEEP_M, _SWEEP_SPAN, _SWEEP_TOP = 1 << 14, 34.0, 40.0


def _grid_numerators(k: Kernel, p: float, members):
    """|T f|_p on the axis for each CayleyPower in ``members`` from the log
    grid weighted by c = min beta / 2, as f(e^w) e^(cw) decays as e^(-c|w|)
    or faster: half-width _SWEEP_SPAN / c within [100, 350] (a kernel may
    reach 60; t = e^(+-2 half) stays in double range), or None when its
    guards refuse the kernel or the members (p above about 7).  Per member,
    the trapezoid rule over the half grid's nodes s <= _SWEEP_TOP of
    g = |T(e^s)|^p e^s with its Euler-Maclaurin top-end term, plus the
    remainder g(S)/(p*beta - 1) of the |x|^-beta tail past the top node S;
    x > 0 only, doubled, by ``even_slice_modulus``."""
    c = 0.5 * min(f.beta for f in members)
    half = min(max(float(math.ceil(_SWEEP_SPAN / c)), 100.0), 350.0)
    grid = _LogGrid(_SWEEP_M, half, half - _SWEEP_TOP, c, 1024)  # 64 KB sample blocks
    h, norms = 2.0 * grid.delta, []
    try:
        entry = _log_grid_kernel(k, grid)
        for f in members:
            # the member's values in eighths, so the Cayley buffers stay small
            s, (t,) = _log_grid_transform([entry], lambda x: np.concatenate(
                [f.eval_batch(part + 0j) * part ** c for part in np.split(x, 8)]), None, grid)
            g = np.abs(t[s <= _SWEEP_TOP]) ** p * np.exp((1.0 - p * c) * s[s <= _SWEEP_TOP])
            del s, t  # before the next member's transform
            r = p * float(KernelImage(kernel=k, base=f).tail_power) - 1.0
            total = h * (np.sum(g) - 0.5 * (g[0] + g[-1])) + (h * h / 12.0 * r + 1.0 / r) * g[-1]
            norms.append((2.0 * total) ** (1.0 / p))
    except ValueError:  # a guard of the grid refused
        return None
    return norms


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
    transforms collapse to cumulative kernel moments, and the numerators'
    heavy power tails are closed with measured remainders.  Both test
    functions carry the p-mass of |x|^(-1-p*eps) on (1, inf), which is
    1/(p*eps) in closed form.
    """
    den_mass = 1.0 / (p * eps)
    if side == "large":
        s = 1.0 / p + eps

        def num_p(xv):
            w = cumulative_moment(k, s, xv, upper=False, tol=tol)
            return np.power(xv, -p * s) * np.power(w, p)

        # the transform sees only mass at t < x, so the integrand levels off
        # toward x = 0 (to phi(0+)^p s^-p): (0, a0) closes with a0*num_p(a0),
        # without which 1.4e-7 of the mass is lost (cesaro, p = 2, eps = 0.2)
        a0 = max(k.support[0], 1e-6)
        num_mass = float(integrate_batched(num_p, doubling_panels(a0, L), tol=tol).value)
        num_mass += a0 * float(num_p(np.array([a0]))[0])
        num_mass += _tail_integral(num_p, 1.0, L, 1.0 + p * eps, +1, tol)
        return (num_mass / den_mass) ** (1.0 / p)

    # side == "small": mass piles up at every scale below 1, so work in
    # v = 1/x where it becomes an ordinary power tail
    s = 1.0 / p - eps

    def num_p_v(vv):
        w = cumulative_moment(k, s, 1.0 / vv, upper=True, tol=tol)
        return np.power(vv, p * s - 2.0) * np.power(w, p)

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
                    family="large-scale-power"),
        SweepResult(p=p, epsilons=eps_list, quotients=small, moment=m.value,
                    family="small-scale-power"),
    )


# ---------------------------------------------------------------------------
# Boundary-value identity

# quadrature tolerance of every norm and transform value the check reads
_BOUNDARY_TOL = 1e-10


def boundary_identity_check(k: Kernel, f: HoloFunction, p: float, y_seq,
                            L: float = 64.0):
    """The approach of (T f)(. + iy) to T(f*) in L^p as y -> 0.

    Returns (errors, |f*|_p): e(y) = |T f(. + iy) - T(f*)|_p for each y in
    the decreasing sequence, in its order, and the boundary norm the
    errors are read against.  Each height integrates over dyadic
    panels graded from a power of two, so the heights share abscissas,
    and T(f*) is computed once per abscissa for the whole call.  When f
    has ``even_slice_modulus`` (f(-conj z) = c conj f(z), |c| = 1), so
    does every dilation average of f and of f*, so the difference's
    modulus is even in x: e(y) integrates x > 0 only and doubles.  The
    errors decay about linearly in y, so the sequence must reach y ~ 1e-4
    for the built-in pairs to bring the final error near 1e-3 of |f*|_p.
    Note the identity is a limit statement only: at fixed y the slice of
    the image does not equal the transform of the slice (dilation moves
    heights), so no slice-wise equality holds.
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
    tol = _BOUNDARY_TOL
    denom = slice_norm(f, 0.0, p, L, tol=tol)
    memo = {}  # abscissa -> T(f*)(abscissa), shared by every height

    def boundary_of(xs):
        new = [x for x in xs.tolist() if x not in memo]
        if new:
            vals = transform_values(k, lambda a: f.eval_batch(a.astype(complex)),
                                    np.array(new), tol=tol)
            memo.update(zip(new, vals.tolist()))
        return np.array([memo[x] for x in xs.tolist()])

    errs = []
    for y in ys:
        # graded panels resolve the y-scale feature the slice develops
        # near x = 0; the difference decays a power faster than f itself,
        # so the window integral carries the whole norm
        scale = math.ldexp(0.5, math.frexp(min(y, f.feature_scale) / 4.0)[1])

        def diff(xs, yy=y):
            return transform_values(k, f.eval_batch, xs + 1j * yy, tol=tol) \
                - boundary_of(xs)

        errs.append(lp_norm_function(diff, p, L, scale, tol=tol,
                                     even_modulus=f.even_slice_modulus))
    return errs, denom
