"""Discrete Hilbert transforms and the commutation check.

Two independent methods realize the principal-value convolution with
1/(pi x): a spectral multiplier on the sample grid (the classical
-i*sgn(xi) symbol, dc and Nyquist bins zeroed) and direct symmetric-pair
principal-value quadrature that reads tagged tails exactly.  They
cross-validate each other on smooth decaying inputs.

The commutation check composes the averaging transform with the
tail-aware spectral H on an internally enlarged window so the slowly
decaying transform of the test function is not clipped, then measures
the residual on the requested grid.  Its two transform legs are log-grid
(Mellin) convolutions, one FFT per sign in log|x|, so the check has no
tolerance to set; the adaptive t-quadrature serves as their oracle in
the tests.  It takes a whole corpus of kernels and functions and shares
the work: the tail-aware transform's grid-only pieces (the fit bases and
the image sums) once per grid, as every transform runs on one; hat
weights and their spectra once per kernel; the tail-aware H f, its
log-grid samples and their spectrum, and |f|_p once per function; only
the tail-aware H(T f) and the residual once per pair.
The residual reads H(T f) on the grid alone, so only H f, sampled out to
e^40, builds the exterior of its form.  Both tails, a tagged input's
remainder beyond the window read inside it and the windowed remainder
read outside, are integrated against 1/(x - y) at Chebyshev nodes in a
log of the distance to the window edge and read off the interpolant.
"""

from __future__ import annotations

import functools
import math
import warnings

import numpy as np
from numpy.polynomial.chebyshev import chebtrim, chebval

from .hausdorff import _log_grid_kernel, _log_grid_transform
from .kernels import moment
from .quadrature import integrate, integrate_batched, integrate_halfline
from .realline import SampledLine, _spline, eval_at, lp_norm

__all__ = [
    "EdgeDecayWarning",
    "hilbert",
    "hilbert_with_tails",
    "commutation_check",
]

METHODS = ("fft", "pv")


class EdgeDecayWarning(UserWarning):
    """Input does not decay at the window edges; the spectral method wraps."""


class _LiveTail(Exception):
    """A tagged remainder read nonzero beyond the window."""


def _spectral_hilbert(vals: np.ndarray) -> np.ndarray:
    """ifft(-i sgn(xi) fft(vals)), dc and Nyquist bins zeroed, inverted in
    place of the one spectrum."""
    spec = np.fft.fft(vals)
    mult = -1j * np.sign(np.fft.fftfreq(vals.size))
    mult[0] = 0.0  # dc: the symbol is undefined at xi = 0
    if vals.size % 2 == 0:
        mult[vals.size // 2] = 0.0  # Nyquist bin has no well-defined sign
    spec *= mult
    return np.fft.ifft(spec, out=spec)


def _pv_values(f: SampledLine, xs: np.ndarray, tol: float) -> np.ndarray:
    """(1/pi) int_0^inf [f(x-s) - f(x+s)]/s ds at each x, vectorized.

    The pole is removed by the symmetric pairing; tagged inputs
    contribute their exact tails beyond the window.
    """
    out = np.empty(xs.shape, dtype=complex)
    chunk = max(1, (1 << 21) // max(xs.size, 1))
    chunk = min(xs.size, max(chunk, 1024))
    for start in range(0, xs.size, chunk):
        xc = xs[start:start + chunk]

        def sym(ss):
            a = eval_at(f, xc[None, :] - ss[:, None])
            b = eval_at(f, xc[None, :] + ss[:, None])
            return (a - b) / ss[:, None]

        core = integrate(sym, 0.0, 2.0 * f.L, tol=tol)
        total = core.value
        if f.form is not None:
            tail = integrate_halfline(sym, tol=tol, support=(2.0 * f.L, math.inf))
            if tail.diverges:
                raise ValueError("tagged tail is not integrable for the transform")
            total = total + tail.value
        out[start:start + chunk] = total / math.pi
    return out


def _hilbert_pv(f: SampledLine, tol: float = 1e-9) -> SampledLine:
    vals = _pv_values(f, f.grid(), tol)
    return SampledLine.from_values(vals, f.L, label=f"H[{f.label}]" if f.label else "")


def hilbert(f: SampledLine, method: str = "fft",
            tol: float = 1e-9) -> SampledLine:
    """Hilbert transform of sampled data on its own grid.

    ``method`` selects the spectral multiplier ("fft") or symmetric-pair
    principal-value quadrature ("pv").  The spectral method warns when the
    input fails to decay at the window edges (magnitude above 1e-6 of the
    peak), since periodization then pollutes the result.
    """
    if method not in METHODS:
        raise ValueError(f"method must be one of {METHODS}")
    if method == "fft":
        amax = float(np.max(np.abs(f.values))) or 1.0
        edge = max(abs(f.values[0]), abs(f.values[-1]))
        if edge > 1e-6 * amax:
            warnings.warn(
                f"window-edge magnitude {edge:.2e} exceeds 1e-6 of the peak; "
                f"the spectral Hilbert transform wraps around", EdgeDecayWarning)
        out = _spectral_hilbert(f.values)
        if np.all(np.abs(f.values.imag) == 0.0):
            out = out.real.astype(complex)
        return SampledLine.from_values(out, f.L, label=f"H[{f.label}]" if f.label else "")
    return _hilbert_pv(f, tol=tol)


# ---------------------------------------------------------------------------
# Tail-aware transform
#
# The Hilbert transform of an integrable function decays like 1/x (mass
# term) plus 1/x^2 (dipole term); a periodic spectral method neither
# carries those tails nor stays clean inside the window, because the
# periodized images of the transform fold back in.  Three exact devices
# repair this at spectral cost:
#   - the input's slow tails and the singular layer a dilation plants at
#     the origin are fitted against templates whose conjugates are all
#     closed forms (P, Q, V, the log point and its jump), so the fitted
#     content is transformed exactly on the whole line;
#   - the image fold-in of the windowed remainder is the closed cotangent
#     sum S1/S2 weighted by the window mass and dipole, subtracted exactly;
#   - outside the window the remainder's transform is a Chebyshev form
#     in a log of the edge distance, from pole-free quadratures against
#     its spline, as the beyond-window tail of a tagged input is inside.
# The result carries a whole-line closed form good to ~1e-7.


def _tail_templates(a: float):
    """(template, conjugate) pairs of the slow tails: even 1/x^2 (P), odd
    1/x (Q) and even 1/|x| (V = (x^2+a^2)^(-1/2)).

    H P = Q, H Q = -P and H V = (2/pi) asinh(x/a) / sqrt(x^2+a^2).
    """
    P = lambda x: (a / math.pi) / (x * x + a * a)
    Q = lambda x: (x / math.pi) / (x * x + a * a)
    V = lambda x: 1.0 / np.sqrt(x * x + a * a)
    HV = lambda x: (2.0 / math.pi) * np.arcsinh(x / a) * V(x)
    return [(P, Q), (Q, lambda x: -P(x)), (V, HV)]


def _origin_templates(a: float):
    """(template, conjugate) pairs of the singular layer at the origin: the
    log point lam = log(1 + (a/x)^2)/2 and the jump hlam = sgn(x)
    arctan(a/|x|), with H lam = hlam and H hlam = -lam."""
    def lam(x):
        # floor keeps the log point finite (and (a/x)^2 representable):
        # integrands may brush x = 0
        x = np.maximum(np.abs(np.asarray(x, dtype=float)), 1e-150)
        return 0.5 * np.log1p((a / x) ** 2)

    def hlam(x):
        x = np.asarray(x, dtype=float)
        with np.errstate(divide="ignore"):
            return np.sign(x) * np.arctan2(a, np.abs(x))
    return [(lam, hlam), (hlam, lambda x: -lam(x))]


_WIDTH = 2.0  # of the conjugate-kernel templates


@functools.lru_cache(maxsize=1)
def _grid_plan(L: float, N: int, origin: float):
    """The pieces of ``hilbert_with_tails`` that depend on its grid alone,
    read-only, kept for the last grid (a commutation check runs every
    transform on one): the 16 nodes nearest ``origin`` and the origin
    fit's basis there, the tail fit's mask |x - origin| >= 0.6 L and its
    basis, and the image sums s1, s2 at every node."""
    xs = -L + (2.0 * L / N) * np.arange(N)
    xc = xs - origin
    near = np.argsort(np.abs(xc))[:16]
    xi = xc[near]
    layer = [T(xi) for T, _ in _origin_templates(_WIDTH)]
    near_basis = np.stack(layer + [np.ones_like(xi), xi, xi * xi, xi ** 3], axis=1)
    far = np.abs(xc) >= 0.6 * L
    far_basis = np.stack([T(xc[far]) for T, _ in _tail_templates(_WIDTH)], axis=1)
    plan = (near, near_basis, far, far_basis, *_image_sums(xs, L))
    for arr in plan:
        arr.flags.writeable = False
    return plan


def _fit_tail_model(g: SampledLine, origin: float = 0.0):
    """Least-squares coefficients of the ``_tail_templates`` (P, Q, V)
    matching g where |x - origin| >= 0.6 L.

    The basis spans the slow content a windowed transform can carry, and
    each template's conjugate is a closed form.
    """
    _, _, far, basis, _, _ = _grid_plan(g.L, g.N, origin)
    coef, *_ = np.linalg.lstsq(basis, g.values[far].real, rcond=None)
    return [float(c) for c in coef]


def _fit_origin_model(g: SampledLine, origin: float = 0.0):
    """Coefficients of the singular layer a dilation transform plants at
    the origin: the log point and the sign jump (``_origin_templates``).

    An offset grid never lands on the origin itself; the 16 nodes nearest
    it determine the two coefficients by least squares against a cubic
    background.
    """
    near, basis, _, _, _, _ = _grid_plan(g.L, g.N, origin)
    coef, *_ = np.linalg.lstsq(basis, g.values[near].real, rcond=None)
    return float(coef[0]), float(coef[1])


def _minus_model(vals, x, terms):
    """vals - sum(c * T(x)) over the fitted (c, (T, H)) terms, in order."""
    for c, (T, _) in terms:
        vals = vals - c * T(x)
    return vals


def _image_sums(x: np.ndarray, L: float):
    """The sums over k != 0 of 1/(x - 2Lk) = (pi/2L) cot(pi x/2L) - 1/x and
    of 1/(x - 2Lk)^2 = (pi/2L)^2 / sin^2(pi x/2L) - 1/x^2, by their series
    where |pi x/2L| < 0.05."""
    z = (math.pi / (2.0 * L)) * x
    small = np.abs(z) < 0.05
    s1, s2 = np.empty_like(z), np.empty_like(z)
    zs, xs, zb, xb = z[small], x[small], z[~small], x[~small]
    with np.errstate(divide="ignore", invalid="ignore"):
        # (z cot z - 1)/x = -(z^2/3 + z^4/45 + 2 z^6/945)/x
        s1[small] = np.where(zs == 0.0, 0.0, -(zs * zs / 3.0 + zs ** 4 / 45.0
                                               + 2.0 * zs ** 6 / 945.0) / xs)
        s2[small] = np.where(zs == 0.0, (math.pi / (2 * L)) ** 2 / 3.0,
                             (zs * zs / 3.0 + zs ** 4 / 15.0 + 2.0 * zs ** 6 / 189.0)
                             / (xs * xs))
        s1[~small] = (math.pi / (2.0 * L)) / np.tan(zb) - 1.0 / xb
        s2[~small] = (math.pi / (2.0 * L)) ** 2 / np.sin(zb) ** 2 - 1.0 / (xb * xb)
    return s1, s2


# first node counts of the inside scan and of the exterior form (about 35
# coefficients), and the cap of both
_TAIL_NODES, _EXTERIOR_NODES, _TAIL_NODES_MAX = 32, 64, 512
_TAIL_TOL = 1e-10


def _chebyshev_log(sample, lo: float, hi: float, n: int):
    """(coefficients, extras) of functions analytic in a log variable v
    about [lo, hi]: ``sample(nodes)`` returns their values at n first-kind
    Chebyshev nodes in v (one column each), then any extras of that pass.
    The coefficients are a type-II DCT; n doubles while either last one
    tops ``_TAIL_TOL``/16 of the largest, and past ``_TAIL_NODES_MAX`` it
    raises ValueError."""
    while n <= _TAIL_NODES_MAX:
        theta = math.pi * (np.arange(n) + 0.5) / n
        vals = sample(0.5 * (hi + lo) + 0.5 * (hi - lo) * np.cos(theta))
        coef = (2.0 / n) * np.cos(np.outer(np.arange(n), theta)) @ vals[:n]
        coef[0] *= 0.5
        if np.all(np.max(np.abs(coef[-2:]), axis=0)
                  <= np.maximum(_TAIL_TOL / 16.0 * np.max(np.abs(coef), axis=0), 1e-300)):
            return coef, vals[n:]
        n *= 2
    raise ValueError(f"tail form not resolved by {_TAIL_NODES_MAX} Chebyshev nodes")


def _tail_scan(r, xs: np.ndarray, L: float, side: float) -> np.ndarray:
    """int r(y)/(x - y) over y = side*(L + s), s > 1e-9, at every x in xs.

    In the distance d = L - side*x to the window edge this is a Stieltjes
    transform of r, analytic in log d on |Im log d| < pi: a
    ``_chebyshev_log`` form over the positive distances, read at every x by
    Clenshaw.  A point on the edge (d = 0) joins the scan as an extra.
    """
    d = L - side * xs
    edge = d <= 0.0
    v = np.log(d[~edge])
    lo, hi = float(v.min()), float(v.max())

    def sample(nodes):
        x_scan = np.concatenate([side * (L - np.exp(nodes)), xs[edge]])

        def integrand(ss):
            y = side * (L + ss)
            return r(y), 1.0 / np.subtract(x_scan[None, :], y[:, None])
        q = integrate_halfline(integrand, tol=_TAIL_TOL, support=(1e-9, math.inf))
        if q.diverges:
            raise ValueError("tagged tail is not integrable")
        return q.value

    coef, at_edge = _chebyshev_log(sample, lo, hi, _TAIL_NODES)
    out = np.empty(xs.shape)
    out[~edge] = chebval((2.0 * v - hi - lo) / (hi - lo), coef)
    out[edge] = at_edge
    return out


def _exterior_form(res: SampledLine, m0: float, m1: float):
    """x -> (1/pi) int res(y)/(x - y) dy over the window, for |x| > L.

    A Stieltjes transform of the remainder's spline again, in the edge
    distance d = |x| - L, and analytic in 1/d at d = infinity too: per side
    a ``_chebyshev_log`` form in v = log(d/(d + 2L)), which is log d near
    the edge and -2L/d far out, over d from 1e-4 L (clamped below) to
    1e7 L, both sides from one quadrature per pass; beyond 1e7 L the
    asymptote of the window mass ``m0`` and dipole ``m1``.
    """
    L, xs, vals = res.L, res.grid(), res.values.real
    lo, hi = -math.log1p(2e4), -math.log1p(2e-7)
    # breakpoints at both ends of each run of nonzero samples and at the
    # sixteenths of their L1 mass: no first panel steps over a compact
    # remainder, or over a bump on one that fitted templates keep nonzero
    nz = np.flatnonzero(vals)
    runs = np.flatnonzero(np.diff(nz) > 1)
    mass = np.cumsum(np.abs(vals))
    picks = np.concatenate([nz[:1], nz[runs], nz[runs + 1], nz[-1:],
                            np.searchsorted(mass, mass[-1] * np.arange(1, 16) / 16)])
    # np.unique would import numpy.ma; integrate_batched skips repeats
    breaks = np.sort(np.concatenate([[-L, L], xs[picks]]))

    def sample(nodes):
        d = 2.0 * L / np.expm1(-nodes)
        x_ext = np.concatenate([L + d, -L - d])
        q = integrate_batched(lambda ys: (eval_at(res, ys).real, 1.0 / np.subtract(
            x_ext[None, :], ys[:, None])), breaks, tol=1e-9)
        return q.value.reshape(2, -1).T / math.pi
    coef, _ = _chebyshev_log(sample, lo, hi, _EXTERIOR_NODES)
    # drop the trailing coefficients the guard counts as resolved
    coefs = [(side, chebtrim(c, _TAIL_TOL / 16.0 * np.max(np.abs(c))))
             for side, c in zip((1.0, -1.0), coef.T)]

    def read(x):
        out = np.empty(x.shape)
        far = np.abs(x) >= 1e7 * L
        out[far] = (m0 / math.pi) / x[far] + (m1 / math.pi) / (x[far] * x[far])
        for side, c in coefs:
            pick = ~far & (side * x > 0)
            if np.any(pick):  # no Clenshaw pass for a side without points
                v = np.clip(-np.log1p(2.0 * L / (np.abs(x[pick]) - L)), lo, hi)
                out[pick] = chebval((2.0 * v - hi - lo) / (hi - lo), c)
        return out
    return read


def hilbert_with_tails(g: SampledLine, origin: float = 0.0) -> SampledLine:
    """Hilbert transform of real data with an honest whole-line form.

    Returns a SampledLine whose closed-form tag is accurate on the whole
    line: fitted conjugate-kernel content handled analytically, windowed
    remainder transformed spectrally with the periodization images
    subtracted in closed form, out-of-window queries answered by
    ``_exterior_form``.  ``origin`` locates dilation-induced features (log
    points) when the data lives on a shifted coordinate.

    The exterior form is built at the form's first call outside the window
    and kept; a caller reading only ``values`` never builds it, and an
    error in it surfaces at that first call, not here.
    """
    if np.max(np.abs(g.values.imag)) > 1e-13 * max(float(np.max(np.abs(g.values))), 1e-300):
        raise ValueError("tail-aware transform expects real-valued input")
    xs = g.grid()
    xc = xs - origin
    scale = max(float(np.max(np.abs(g.values))), 1e-300)
    # fitted (coefficient, (template, conjugate)) terms; genuine singular
    # layers sit at O(0.01..1) of scale, smaller fitted coefficients are
    # stencil noise from smooth data
    terms = [(c, pair) for c, pair in zip(_fit_origin_model(g, origin),
                                          _origin_templates(_WIDTH))
             if abs(c) >= 1e-6 * scale]
    work = _minus_model(g.values.real, xc, terms)
    tail_terms = list(zip(_fit_tail_model(SampledLine.from_values(work, g.L),
                                          origin), _tail_templates(_WIDTH)))
    terms += tail_terms
    res_vals = _minus_model(work, xc, tail_terms)

    # window mass and dipole of the remainder drive the image fold-in and
    # the far asymptote
    m0w = float(np.sum(res_vals)) * g.h
    m1w = float(np.sum(res_vals * xs)) * g.h
    s1, s2 = _grid_plan(g.L, g.N, origin)[4:]
    hres_vals = _spectral_hilbert(res_vals).real - (m0w / math.pi) * s1 - (m1w / math.pi) * s2

    if g.form is not None:
        # tagged inputs contribute their true beyond-window remainder (the
        # part the fitted model missed); pole-free seen from inside
        def res_tag(y):
            yc = np.asarray(y, dtype=float) - origin
            return _minus_model(np.asarray(g.form(y)).real, yc, terms)

        def tail_side(side):
            # a scalar probe first, stopped at the first nonzero sample: a
            # remainder that reads 0 at every abscissa the probe visits
            # makes the node scan visit the same abscissas and return
            # zeros, so that scan is skipped
            def probe(ss):
                vals = res_tag(side * (g.L + ss))
                if np.any(vals):
                    raise _LiveTail
                return vals
            try:
                integrate_halfline(probe, tol=_TAIL_TOL, support=(1e-9, math.inf))
                return np.zeros(xs.shape)
            except _LiveTail:
                return _tail_scan(res_tag, xs, g.L, side)

        hres_vals = hres_vals + (tail_side(+1.0) + tail_side(-1.0)) / math.pi
    # spline of the remainder's transform, fitted at the first read inside
    hres = functools.cache(lambda: _spline(-g.L, g.h, hres_vals))

    def h_model(x):
        x = np.asarray(x, dtype=float) - origin
        return sum(c * H(x) for c, (_, H) in terms)

    out_vals = hres_vals + h_model(xs)

    # the remainder's line and spline live only while the form is built
    exterior = functools.cache(lambda: _exterior_form(
        SampledLine.from_values(res_vals, g.L), m0w, m1w))

    def form(x):
        x = np.asarray(x, dtype=float)
        out = h_model(x).astype(complex)
        inside = np.abs(x) <= g.L
        if np.any(inside):
            out[inside] += hres()(x[inside])
        if not np.all(inside):
            out[~inside] += exterior()(x[~inside])
        return out

    # 1/x content of the transform is driven by the input's mass; grid
    # sums of jumpy data are only trustworthy above the h level
    phys_mass = abs(float(np.sum(g.values.real)) * g.h)
    mass_floor = max(1e-9, 2.5 * g.h) * scale
    fitted_mass = abs(tail_terms[0][0])  # P's coefficient
    tp = 1.0 if (fitted_mass + phys_mass / math.pi) > mass_floor else 2.0
    return SampledLine.derived(out_vals, g.L, form, tail_power=tp,
                               label=f"H[{g.label}]" if g.label else "")


def _commute_legs(weighted, f: SampledLine) -> tuple:
    """(T(H f) on f's window, T f on one four times wider), each listed per
    ``_log_grid_kernel`` entry in ``weighted``: the per-function stage."""
    # internal midpoint-offset nodes: the transform of anything nonzero at
    # the origin carries a log point at x = 0, which node grids hit exactly
    big_L, big_N = f.L * 4, f.N * 4
    shift = 0.5 * f.h
    xs_big = -big_L + f.h * (np.arange(big_N) + 0.5)

    f_eval = f.form if f.form is not None else (lambda x: eval_at(f, x))
    f_big_vals = np.asarray(f_eval(xs_big), dtype=complex)

    lo = (big_N - f.N) // 2
    xs_small = xs_big[lo:lo + f.N]

    # shifted coordinate x' = x - h/2 puts the offset nodes on a standard
    # grid; the Hilbert transform commutes with the shift, and the
    # transform's log point (true x = 0) sits at x' = -h/2
    shifted_tag = None if f.form is None else lambda x: np.asarray(
        f_eval(np.asarray(x, dtype=float) + shift), dtype=complex)
    big_shifted = SampledLine(L=big_L, values=f_big_vals, form=shifted_tag,
                              tail_power=f.tail_power)
    hf_shifted = hilbert_with_tails(big_shifted, origin=-shift)
    hf_true = lambda x: hf_shifted.form(np.asarray(x, dtype=float) - shift)
    return (_log_grid_transform(weighted, hf_true, xs_small),
            _log_grid_transform(weighted, f_eval, xs_big))


def _commute_gap(t_hf, tf_vals, f: SampledLine, p: float) -> float:
    """|T(H f) - H(T f)|_p on f's window: the per-pair stage."""
    lo = (tf_vals.size - f.N) // 2
    h_tf_shifted = hilbert_with_tails(SampledLine.from_values(tf_vals, f.L * 4),
                                      origin=-0.5 * f.h)
    diff = np.abs(t_hf - h_tf_shifted.values[lo:lo + f.N])
    if math.isinf(p):
        return float(np.max(diff))
    return float(np.sum(diff ** p) * f.h) ** (1.0 / p)


def commutation_check(kernels, fs, p: float = 2.0) -> list:
    """Residual of T_phi(H f) = H(T_phi f) relative to |f|_p for every
    kernel in ``kernels`` and function in ``fs``: kernel-major, one list
    per kernel of one residual per function.

    Both compositions run on a window four times wider (same spacing),
    with the slow tails of every intermediate carried by fitted
    conjugate-kernel models; the residual norm is taken back on f's own
    window.  The log-grid legs (``hausdorff._log_grid_transform``) raise
    ValueError rather than truncate, e.g. when f has not decayed by e^40.

    The corpus must be non-empty, and every kernel's moment and every
    function's realness are checked, before any transform runs; ValueError
    otherwise.  Then the tail-aware transform's grid-only pieces are built
    once per grid (every transform of the check runs on one); hat weights
    and their spectra once per kernel; H f, its log-grid samples and |f|_p
    once per function; the convolutions and the tail-aware H(T f) once per
    pair.  At p = inf the residual is max|T(H f) - H(T f)| / sup|f|.
    """
    kernels, fs = tuple(kernels), tuple(fs)
    if not kernels or not fs:
        raise ValueError("commutation needs at least one kernel and one function")
    for k in kernels:
        if not moment(k, p).finite:
            raise ValueError(f"{k.label}: commutation requires a finite moment at p={p:g}")
    for f in fs:
        if np.max(np.abs(f.values.imag)) > 0:
            raise ValueError(f"{f.label or 'input'}: commutation inputs must be real-valued")
    weighted = [_log_grid_kernel(k) for k in kernels]
    # function-major, each stage in its own scope, so no 2^16-sample array
    # of one function outlives it into the next function's H f
    residuals = []
    for f in fs:
        den = lp_norm(f, p)
        residuals.append([_commute_gap(t_hf, tf_vals, f, p) / den
                          for t_hf, tf_vals in zip(*_commute_legs(weighted, f))])
    return [list(per_k) for per_k in zip(*residuals)]
