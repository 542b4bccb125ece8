"""Discrete Hilbert transform, analytic completion, and commutation checks.

Two independent methods realize the principal-value convolution with
1/(pi x): a spectral multiplier on the sample grid (the classical
-i*sgn(xi) symbol, dc and Nyquist bins zeroed) and direct symmetric-pair
principal-value quadrature that reads tagged tails exactly.  They
cross-validate each other on smooth decaying inputs.

The commutation check composes the averaging transform with both methods'
H on an internally enlarged window so the slowly decaying transform of
the test function is not clipped, then measures the residual on the
requested grid.  Its two transform legs are log-grid (Mellin)
convolutions, one FFT per sign in log|x|, so the check has no tolerance
to set; the adaptive t-quadrature serves as their oracle in the tests.
"""

from __future__ import annotations

import math
import warnings

import numpy as np
from scipy.interpolate import PchipInterpolator

from .hausdorff import _log_grid_transform
from .kernels import Kernel, moment
from .quadrature import integrate, integrate_halfline
from .realline import SampledLine, eval_at, lp_norm
from .report import CheckRow, VerificationReport

__all__ = [
    "EdgeDecayWarning",
    "hilbert",
    "hilbert_with_tails",
    "analytic_completion",
    "project_plus",
    "project_minus",
    "commutation_check",
]

METHODS = ("fft", "pv")


class EdgeDecayWarning(UserWarning):
    """Input does not decay at the window edges; the spectral method wraps."""


def _hilbert_fft(f: SampledLine) -> SampledLine:
    vals = f.values
    spec = np.fft.fft(vals)
    xi = np.fft.fftfreq(f.N, d=f.h)
    mult = -1j * np.sign(xi)
    mult[0] = 0.0  # dc: the symbol is undefined at xi = 0
    if f.N % 2 == 0:
        mult[f.N // 2] = 0.0  # Nyquist bin has no well-defined sign
    out = np.fft.ifft(spec * mult)
    if np.all(np.abs(vals.imag) == 0.0):
        out = out.real.astype(complex)
    return SampledLine.from_values(out, f.L, label=f"H[{f.label}]" if f.label else "")


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


def _check_method(method: str) -> None:
    if method not in METHODS:
        raise ValueError(f"method must be one of {METHODS}")


def hilbert(f: SampledLine, method: str = "fft",
            tol: float = 1e-9) -> SampledLine:
    """Hilbert transform of sampled data on its own grid.

    ``method`` selects the spectral multiplier ("fft") or symmetric-pair
    principal-value quadrature ("pv").  The spectral method warns when the
    input fails to decay at the window edges (magnitude above 1e-6 of the
    peak), since periodization then pollutes the result.
    """
    _check_method(method)
    if method == "fft":
        amax = float(np.max(np.abs(f.values))) or 1.0
        edge = max(abs(f.values[0]), abs(f.values[-1]))
        if edge > 1e-6 * amax:
            warnings.warn(
                f"window-edge magnitude {edge:.2e} exceeds 1e-6 of the peak; "
                f"the spectral Hilbert transform wraps around", EdgeDecayWarning)
        return _hilbert_fft(f)
    return _hilbert_pv(f, tol=tol)


def analytic_completion(g: SampledLine, method: str = "fft") -> SampledLine:
    """g + i H(g) for real g: boundary values of an analytic extension."""
    if np.max(np.abs(g.values.imag)) > 1e-14 * max(np.max(np.abs(g.values)), 1e-300):
        raise ValueError("analytic completion requires real-valued input")
    if g.form is not None:
        base_form = g.form
        real = SampledLine.from_function(
            lambda x: np.asarray(base_form(x)).real.astype(complex), g.L, g.N,
            tail_power=g.tail_power, label=g.label)
    else:
        real = SampledLine.from_values(g.values.real, g.L, label=g.label)
    hg = hilbert(real, method)
    return SampledLine.from_values(g.values.real + 1j * hg.values.real, g.L,
                                   label=f"{g.label}+iH" if g.label else "")


def project_plus(f: SampledLine, method: str = "fft") -> SampledLine:
    """P+ f = (f + i Hf)/2: the analytic-signal component."""
    hf = hilbert(f, method)
    return SampledLine.from_values(0.5 * (f.values + 1j * hf.values), f.L)


def project_minus(f: SampledLine, method: str = "fft") -> SampledLine:
    """P- f = (f - i Hf)/2; P+ + P- is the identity by construction."""
    hf = hilbert(f, method)
    return SampledLine.from_values(0.5 * (f.values - 1j * hf.values), f.L)


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
#   - outside the window the remainder's transform is an ordinary
#     (pole-free) quadrature against its spline.
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


def _fit_tail_model(g: SampledLine, a: float, origin: float = 0.0):
    """Least-squares coefficients of the ``_tail_templates`` (P, Q, V)
    matching g where |x| >= 0.6 L.

    The basis spans the slow content a windowed transform can carry, and
    each template's conjugate is a closed form.
    """
    xs = g.grid() - origin
    sel = np.abs(xs) >= 0.6 * g.L
    basis = np.stack([T(xs[sel]) for T, _ in _tail_templates(a)], axis=1)
    coef, *_ = np.linalg.lstsq(basis, g.values[sel].real, rcond=None)
    return [float(c) for c in coef]


def _fit_origin_model(g: SampledLine, a: float, origin: float = 0.0):
    """Coefficients of the singular layer a dilation transform plants at
    the origin: log point, sign jump, x log kink, |x|-type kink.

    An offset grid never lands on the origin itself; the innermost nodes
    determine the four coefficients against a quintic background.
    """
    xs = g.grid() - origin
    idx = np.argsort(np.abs(xs))[:16]
    xi = xs[idx]
    layer = [T(xi) for T, _ in _origin_templates(a)]
    basis = np.stack(layer + [np.ones_like(xi), xi, xi * xi, xi ** 3], axis=1)
    coef, *_ = np.linalg.lstsq(basis, g.values[idx].real, rcond=None)
    return float(coef[0]), float(coef[1])


def _minus_model(vals, x, terms):
    """vals - sum(c * T(x)) over the fitted (c, (T, H)) terms, in order."""
    for c, (T, _) in terms:
        vals = vals - c * T(x)
    return vals


def _image_sum_1(x: np.ndarray, L: float) -> np.ndarray:
    """sum over k != 0 of 1/(x - 2Lk) = (pi/2L) cot(pi x/2L) - 1/x."""
    z = (math.pi / (2.0 * L)) * x
    small = np.abs(z) < 0.05
    out = np.empty_like(z)
    zs = z[small]
    # (z cot z - 1)/x = -(z^2/3 + z^4/45 + 2 z^6/945)/x
    with np.errstate(divide="ignore", invalid="ignore"):
        out[small] = np.where(
            zs == 0.0, 0.0,
            -(zs * zs / 3.0 + zs ** 4 / 45.0 + 2.0 * zs ** 6 / 945.0) / x[small])
        zb = z[~small]
        out[~small] = (math.pi / (2.0 * L)) / np.tan(zb) - 1.0 / x[~small]
    return out


def _image_sum_2(x: np.ndarray, L: float) -> np.ndarray:
    """sum over k != 0 of 1/(x - 2Lk)^2 = (pi/2L)^2 / sin^2 - 1/x^2."""
    z = (math.pi / (2.0 * L)) * x
    small = np.abs(z) < 0.05
    out = np.empty_like(z)
    zs = z[small]
    with np.errstate(divide="ignore", invalid="ignore"):
        out[small] = np.where(
            zs == 0.0, (math.pi / (2 * L)) ** 2 / 3.0,
            (zs * zs / 3.0 + zs ** 4 / 15.0 + 2.0 * zs ** 6 / 189.0)
            / (x[small] * x[small]))
        zb = z[~small]
        out[~small] = (math.pi / (2.0 * L)) ** 2 / np.sin(zb) ** 2 \
            - 1.0 / (x[~small] * x[~small])
    return out


def hilbert_with_tails(g: SampledLine, method: str = "fft",
                       origin: float = 0.0) -> SampledLine:
    """Hilbert transform of real data with an honest whole-line form.

    Returns a SampledLine whose closed-form tag is accurate on the whole
    line: fitted conjugate-kernel content handled analytically, windowed
    remainder transformed spectrally with the periodization images
    subtracted in closed form, out-of-window queries answered by direct
    quadrature.  ``origin`` locates dilation-induced features (log points)
    when the data lives on a shifted coordinate.
    """
    _check_method(method)
    if np.max(np.abs(g.values.imag)) > 1e-13 * max(float(np.max(np.abs(g.values))), 1e-300):
        raise ValueError("tail-aware transform expects real-valued input")
    xs = g.grid()
    xc = xs - origin
    scale = max(float(np.max(np.abs(g.values))), 1e-300)
    a = 2.0  # width of the conjugate-kernel templates
    # fitted (coefficient, (template, conjugate)) terms; genuine singular
    # layers sit at O(0.01..1) of scale, smaller fitted coefficients are
    # stencil noise from smooth data
    terms = [(c, pair) for c, pair in zip(_fit_origin_model(g, a, origin),
                                          _origin_templates(a))
             if abs(c) >= 1e-6 * scale]
    work = _minus_model(g.values.real, xc, terms)
    tail_terms = list(zip(_fit_tail_model(SampledLine.from_values(work, g.L),
                                          a, origin), _tail_templates(a)))
    terms += tail_terms
    res_vals = _minus_model(work, xc, tail_terms)
    res = SampledLine.from_values(res_vals, g.L)

    if method == "pv":
        hres_vals = _pv_values(res, xs, 1e-8).real
    else:
        hres_vals = _hilbert_fft(res).values.real
        # window mass and dipole of the remainder drive the image fold-in
        m0w_c = float(np.sum(res_vals)) * g.h
        m1w_c = float(np.sum(res_vals * xs)) * g.h
        hres_vals = hres_vals - (m0w_c / math.pi) * _image_sum_1(xs, g.L) \
            - (m1w_c / math.pi) * _image_sum_2(xs, g.L)

    if g.form is not None:
        # tagged inputs contribute their true beyond-window remainder (the
        # part the fitted model missed); pole-free seen from inside
        def res_tag(y):
            yc = np.asarray(y, dtype=float) - origin
            return _minus_model(np.asarray(g.form(y)).real, yc, terms)

        def tail_side(side):
            def integrand(ss):
                y = side * (g.L + ss)
                return res_tag(y)[:, None] / (xs[None, :] - y[:, None])
            r = integrate_halfline(integrand, tol=1e-10,
                                   support=(1e-9, math.inf))
            if r.diverges:
                raise ValueError("tagged tail is not integrable")
            return np.asarray(r.value)

        hres_vals = hres_vals + (tail_side(+1.0) + tail_side(-1.0)) / math.pi
    hres = SampledLine.from_values(hres_vals, g.L)

    def h_model(x):
        x = np.asarray(x, dtype=float) - origin
        return sum(c * H(x) for c, (_, H) in terms)

    out_vals = hres_vals + h_model(xs)

    # the remainder's transform outside the window is a pole-free
    # quadrature; precompute x*H(res)(x) on a log ladder once per side and
    # interpolate, with the mass/dipole asymptote beyond the ladder
    m0w = float(np.sum(res_vals)) * g.h
    m1w = float(np.sum(res_vals * xs)) * g.h
    # ladder starts a hair outside the window: at x = L the integrand has
    # an endpoint pole the adaptive scheme must not be asked to resolve
    ladder = np.geomspace(g.L * (1.0 + 1e-4), 1e7 * g.L, 200)
    log_lo, log_hi = math.log(ladder[0]), math.log(ladder[-1])

    def _exterior(points):
        quad = integrate(lambda ys: eval_at(res, ys)[:, None].real
                         / (points[None, :] - ys[:, None]), -g.L, g.L, tol=1e-9)
        return np.asarray(quad.value) / math.pi

    sides = {}
    for sgn in (+1.0, -1.0):
        vals = _exterior(sgn * ladder)
        sides[sgn] = PchipInterpolator(np.log(ladder), sgn * ladder * vals,
                                       extrapolate=False)

    def h_res_out(x):
        x = np.asarray(x, dtype=float)
        lg = np.clip(np.log(np.abs(x)), log_lo, log_hi)
        out = np.empty_like(x)
        far = lg >= log_hi
        with np.errstate(divide="ignore"):
            out[far] = (m0w / math.pi) / x[far] + (m1w / math.pi) / (x[far] * x[far])
        for sgn, side in ((1.0, x >= 0), (-1.0, x < 0)):
            near = side & ~far
            out[near] = sides[sgn](lg[near]) / x[near]
        return out

    # stitch the spline/ladder seam: residual mismatch there would plant a
    # kink at t = |x|/L of every downstream dilation integral, fragmenting
    # the adaptive schedule node by node
    seam = {}
    for sgn in (+1.0, -1.0):
        v_in = complex(eval_at(hres, np.array([sgn * g.L]))[0]).real
        v_out = float(h_res_out(np.array([sgn * g.L * (1.0 + 1e-4)]))[0])
        seam[sgn] = v_in - v_out

    def h_res_out_stitched(x):
        base = h_res_out(x)
        ratio = (g.L / np.abs(x)) ** 2
        return base + np.where(x >= 0, seam[1.0], seam[-1.0]) * ratio

    def form(x):
        x = np.asarray(x, dtype=float)
        out = h_model(x).astype(complex)
        inside = np.abs(x) <= g.L
        if np.any(inside):
            out[inside] += eval_at(hres, x[inside])
        if np.any(~inside):
            out[~inside] += h_res_out_stitched(x[~inside])
        return out

    # 1/x content of the transform is driven by the input's mass; grid
    # sums of jumpy data are only trustworthy above the h level
    phys_mass = abs(float(np.sum(g.values.real)) * g.h)
    mass_floor = max(1e-9, 2.5 * g.h) * scale
    fitted_mass = abs(tail_terms[0][0])  # P's coefficient
    tp = 1.0 if (fitted_mass + phys_mass / math.pi) > mass_floor else 2.0
    return SampledLine(L=g.L, values=out_vals, form=form, tail_power=tp,
                       label=f"H[{g.label}]" if g.label else "")


def commutation_check(k: Kernel, f: SampledLine, p: float = 2.0,
                      method: str = "fft") -> VerificationReport:
    """Residual of T_phi(H f) = H(T_phi f) relative to |f|_p.

    Both compositions run on a window four times wider (same spacing),
    with the slow tails of every intermediate carried by fitted
    conjugate-kernel models rather than clipped; the residual norm is
    taken back on f's own window.  Passes below 1e-5.

    The two transform legs, T(Hf) on f's window and T f on the wide one,
    are log-grid convolutions (``hausdorff._log_grid_transform``): one
    FFT per sign in s = log|x|, with no tolerance to set.  They raise
    ValueError rather than truncate, for instance when f has not decayed
    by |x| = e^40.
    """
    m = moment(k, p)
    if not m.finite:
        raise ValueError("commutation requires a finite moment on this p-scale")
    if np.max(np.abs(f.values.imag)) > 0:
        raise ValueError("commutation corpus functions are real-valued")

    # internal midpoint-offset nodes: the transform of anything nonzero at
    # the origin carries a log point at x = 0, which node grids hit exactly
    big_L = f.L * 4
    big_N = f.N * 4
    h = f.h
    shift = 0.5 * h
    xs_big = -big_L + h * (np.arange(big_N) + 0.5)

    if f.form is not None:
        f_eval = f.form
    else:
        f_eval = lambda x: eval_at(f, x)
    f_big_vals = np.asarray(f_eval(xs_big), dtype=complex)

    lo = (big_N - f.N) // 2
    hi = lo + f.N
    xs_small = xs_big[lo:hi]

    # shifted coordinate x' = x - h/2 puts the offset nodes on a standard
    # grid; the Hilbert transform commutes with the shift, and the
    # transform's log point (true x = 0) sits at x' = -h/2
    shifted_tag = None
    if f.form is not None:
        shifted_tag = lambda x: np.asarray(
            f_eval(np.asarray(x, dtype=float) + shift), dtype=complex)
    big_shifted = SampledLine(L=big_L, values=f_big_vals, form=shifted_tag,
                              tail_power=f.tail_power)
    hf_shifted = hilbert_with_tails(big_shifted, method=method, origin=-shift)
    hf_true = lambda x: hf_shifted.form(np.asarray(x, dtype=float) - shift)
    t_hf = _log_grid_transform(k, hf_true, xs_small)
    tf_vals = _log_grid_transform(k, f_eval, xs_big)
    tf_shifted = SampledLine.from_values(tf_vals, big_L)
    h_tf_shifted = hilbert_with_tails(tf_shifted, method=method, origin=-shift)

    diff = t_hf - h_tf_shifted.values[lo:hi]
    num = float(np.sum(np.abs(diff) ** p) * h) ** (1.0 / p)
    den = lp_norm(f, p)
    residual = num / den
    row = CheckRow(suite="commute", check=f"{k.label} on {f.label or 'input'}",
                   anchor="hilbert-commutation", computed=residual, predicted=0.0,
                   residual=residual, tol=1e-5, passed=bool(residual < 1e-5))
    return VerificationReport(
        suite="commute", rows=[row],
        environment={"kernel": k.label, "p": p, "method": method,
                     "window_factor": 4, "L": f.L, "N": f.N})
