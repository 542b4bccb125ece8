"""Real-variable H1 machinery and BMO norms.

Atoms (supported on an interval, bounded by the reciprocal length, mean
zero), their weighted sums, the smooth and nontangential Poisson maximal
functions, the cone square function, the computable H1 proxy norm
|f|_1 + |Hf|_1, dyadic BMO norms, and the measurements behind the
averaging transform's H1 lower bound and BMO bounds.

The equivalence constants between the H1 characterizations depend on the
mollifier and are not universal numbers; the suite measures the ratios on
a seeded corpus and regresses them against corridors frozen after one
calibration run.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .adjoint import _sa_values
from .halfplane import CayleyPower, _poisson_grid_values
from .hausdorff import SweepResult, transform_values
from .hilbert import hilbert_with_tails
from .kernels import Kernel, moment, moment_exponent, truncate_below
from .realline import SampledLine, _convolve_rows, lp_norm, lp_norm_function

__all__ = [
    "Atom",
    "AtomicDecomposition",
    "make_atom",
    "smooth_maximal",
    "poisson_maximal",
    "square_function",
    "H1Report",
    "h1_report",
    "h1_proxy_norm",
    "bmo_norm",
    "h1_lowerbound_check",
    "bmo_bound_check",
]

ATOM_SHAPES = ("haar", "sine", "bump")

# dyadic depth of the BMO norms and quadrature tolerance of the moments
# and transforms in bmo_bound_check
BMO_DEPTH = 9
_BMO_TOL = 1e-9


@dataclass(frozen=True)
class Atom:
    """H1 atom: supported in B, bounded by 1/|B|, mean zero."""

    center: float
    half_length: float
    shape: str
    fn: object = field(repr=False, compare=False)

    @property
    def measure(self) -> float:
        return 2.0 * self.half_length

    def __call__(self, x):
        return np.asarray(self.fn(np.asarray(x, dtype=float)))

    def validate(self, samples: int = 4096) -> None:
        # midpoint sampling: never lands on the jump of a haar profile
        step = self.measure / samples
        xs = self.center - self.half_length + step * (np.arange(samples) + 0.5)
        vals = self(xs)
        bound = 1.0 / self.measure
        if float(np.max(np.abs(vals))) > bound * (1.0 + 1e-9):
            raise ValueError("atom exceeds its size bound")
        mean = float(np.sum(vals.real)) * step
        if abs(mean) > 1e-12 * bound * self.measure:
            raise ValueError(f"atom mean {mean:.2e} is not zero")
        outside = self(np.array([self.center - 2 * self.half_length,
                                 self.center + 2 * self.half_length]))
        if np.max(np.abs(outside)) != 0.0:
            raise ValueError("atom has mass outside its interval")


def make_atom(center: float, half_length: float, shape: str = "haar") -> Atom:
    """Built-in atom shapes on [center - l, center + l].

    haar: +-1/|B| on the two halves; sine: one full period scaled to the
    size bound; bump: mean-corrected smooth bump.
    """
    if half_length <= 0:
        raise ValueError("half_length must be positive")
    if shape not in ATOM_SHAPES:
        raise ValueError(f"shape must be one of {ATOM_SHAPES}")
    c, l = float(center), float(half_length)
    bound = 1.0 / (2.0 * l)

    if shape == "haar":
        def fn(x):
            u = (x - c) / l
            inside = np.abs(u) <= 1.0
            return np.where(inside, np.where(u < 0, -bound, bound), 0.0)
    elif shape == "sine":
        def fn(x):
            u = (x - c) / l
            inside = np.abs(u) <= 1.0
            return np.where(inside, bound * np.sin(math.pi * u), 0.0)
    else:
        # smooth bump times u, mean zero by oddness, scaled to the bound
        def raw(u):
            with np.errstate(divide="ignore", over="ignore", invalid="ignore"):
                b = np.exp(-1.0 / np.clip(1.0 - u * u, 1e-300, None))
            return np.where(np.abs(u) < 1.0, u * b, 0.0)

        peak = float(np.max(np.abs(raw(np.linspace(-1, 1, 20001)))))

        def fn(x):
            u = (x - c) / l
            return bound / peak * raw(u)

    atom = Atom(center=c, half_length=l, shape=shape, fn=fn)
    atom.validate()
    return atom


@dataclass(frozen=True)
class AtomicDecomposition:
    """Finite weighted sum of atoms; the atomic bound is sum |lambda_j|."""

    terms: tuple

    def __post_init__(self):
        object.__setattr__(self, "terms",
                           tuple((complex(c), a) for c, a in self.terms))

    @property
    def atomic_bound(self) -> float:
        return float(sum(abs(c) for c, _ in self.terms))

    def synthesize(self, L: float, N: int) -> SampledLine:
        """Samples of the sum on [-L, L).

        When every atom lies inside the sampled range [-L, L - h] the sum
        has no tails, so the samples come untagged and the Poisson layer
        skips its tail integrals; otherwise the sum is the closed-form tag.
        """
        def fn(x):
            x = np.asarray(x, dtype=float)
            out = np.zeros(x.shape, dtype=complex)
            for coef, atom in self.terms:
                out += coef * atom(x)
            return out

        h = 2.0 * L / N
        if all(-L <= a.center - a.half_length and a.center + a.half_length <= L - h
               for _, a in self.terms):
            grid = -L + h * np.arange(N)
            return SampledLine.from_values(fn(grid), L, label="atomic-sum")
        return SampledLine.from_function(fn, L, N, label="atomic-sum")


# ---------------------------------------------------------------------------
# Maximal functions and the square function


def _scales(f: SampledLine, t_grid, count: int) -> np.ndarray:
    """t_grid, else ``count`` log-spaced scales from h to 4 L, the range a
    finite grid resolves; a scale that is not finite and positive raises."""
    ts = np.geomspace(f.h, 4.0 * f.L, count) if t_grid is None \
        else np.asarray(t_grid, dtype=float)
    bad = ts[~(np.isfinite(ts) & (ts > 0))]
    if bad.size:
        raise ValueError(f"scale {float(bad[0])!r} is not finite and positive")
    return ts


def _corpus(f) -> tuple:
    """(f as a list of inputs, whether f was one input, not a sequence);
    an empty sequence raises ValueError."""
    one = isinstance(f, (SampledLine, AtomicDecomposition))
    fs = [f] if one else list(f)
    if not fs:
        raise ValueError("a corpus needs at least one input")
    return fs, one


def smooth_maximal(f: SampledLine, t_grid=None, scales: int = 64) -> SampledLine:
    """sup over t of |f * Phi_t| for a fixed normalized Gaussian Phi.

    A scale below the grid step h raises: the sampled Gaussian is then
    too narrow for its Riemann sum, which inflates |f * Phi_t| past
    max |f|.  Each Gaussian is a row of 2N - 1 taps (taps at +-2L reach no
    grid point), so all scales share the transform length 2N and f's
    spectrum (its real part's when f is real), which f keeps for every
    convolution against it; rows go through in stacks
    (``realline._convolve_rows``).  ``f`` may also be a corpus, a
    non-empty sequence of lines on one grid: each stack of rows then
    serves all of them, and the result is their list.
    """
    fs, one = _corpus(f)
    g = fs[0]
    ts = _scales(g, t_grid, scales)
    fine = ts[ts < g.h]
    if fine.size:
        raise ValueError(f"scale {float(fine[0])!r} is below the grid step {g.h!r}")
    ms = np.minimum(np.ceil(np.minimum(8.0 * ts, 2.0 * g.L) / g.h), g.N - 1).astype(int)
    best = [np.zeros(g.N) for _ in fs]

    def row(i):
        t, m = ts[i], ms[i]
        out = np.zeros(2 * g.N - 1)
        ker_x = np.arange(-m, m + 1) * g.h
        out[g.N - 1 - m:g.N + m] = \
            np.exp(-0.5 * (ker_x / t) ** 2) / (t * math.sqrt(2 * math.pi)) * g.h
        return out

    for _, convs in _convolve_rows(fs, range(ts.size), row):
        for b, conv in zip(best, convs):
            np.maximum(b, np.abs(conv).max(axis=0), out=b)
            del conv  # else its buffer stays alive while the next is made
    out = [SampledLine.from_values(b, line.L, label=f"M_smooth[{line.label}]")
           for b, line in zip(best, fs)]
    return out[0] if one else out


def _edge_pad(a: np.ndarray, r: int) -> np.ndarray:
    """a with its end values repeated r times beyond each end."""
    return np.concatenate((np.full(r, a[0]), a, np.full(r, a[-1])))


def _window_max(a: np.ndarray, r: int) -> np.ndarray:
    """max of a over [i - r, i + r] clamped to the array, at each i: scipy's
    maximum_filter1d(a, 2r + 1, mode="nearest"), exact.  Maxima over
    power-of-two spans double until one more doubling would pass 2r + 1."""
    r = min(r, a.size)
    m, w, span = _edge_pad(a, r), 2 * r + 1, 1
    while 2 * span <= w:
        m, span = np.maximum(m[:-span], m[span:]), 2 * span
    return np.maximum(m[:a.size], m[w - span:w - span + a.size])


def _window_mean(a: np.ndarray, r: int) -> np.ndarray:
    """Mean of a over [i - r, i + r], edge values repeated beyond the ends,
    in the arithmetic of scipy's uniform_filter1d(a, 2r + 1, mode="nearest")
    bit for bit: one running sum, entering and leaving samples differenced
    first, divided by the width at the end."""
    w, pad = 2 * r + 1, _edge_pad(a, r)
    first = np.cumsum(pad[:w])[-1:]
    return np.cumsum(np.concatenate((first, pad[w:] - pad[:-w]))) / w


def _poisson_pass(fs, ts: np.ndarray) -> list:
    """(M_P, S) of each line of the corpus fs, from one Poisson level
    u = f * P_t per height t in ts (``halfplane._poisson_grid_values``).

    Levels come in increasing t; each feeds the running max over the cone
    |y - x| < t and, with its two neighbours (at most three per line are
    alive), the cone sum of |grad u|^2 by central differences on h * dt
    cells."""
    ts = np.sort(ts)
    best, acc = [np.zeros(f.N) for f in fs], [np.zeros(f.N) for f in fs]
    part = [np.real if np.all(np.abs(f.values.imag) == 0) else np.asarray for f in fs]
    levels = _poisson_grid_values(fs, ts)
    lo = v = next(levels, None)
    last = len(ts) - 1
    for i, t in enumerate(ts):
        hi = next(levels, v)
        radius = int(t / fs[0].h)
        t_prev, t_next = ts[max(i - 1, 0)], ts[min(i + 1, last)]
        # cell thickness in t around this level
        dt = 0.5 * (t_next - (t_prev if i > 0 else t / 2.0)) if last else t
        for j, f in enumerate(fs):
            best[j] = np.maximum(best[j], _window_max(np.abs(v[j]), radius))
            u_x = np.gradient(part[j](v[j]), f.h)
            u_t = (part[j](hi[j]) - part[j](lo[j])) / (t_next - t_prev) \
                if t_next > t_prev else np.zeros_like(u_x)
            dens = np.abs(u_t) ** 2 + np.abs(u_x) ** 2
            cone = _window_mean(dens, radius) * (2 * radius + 1) if radius > 0 \
                else dens
            acc[j] += cone * f.h * dt
        lo, v = v, hi
    return [(SampledLine.from_values(m, f.L, label=f"M_P[{f.label}]"),
             SampledLine.from_values(np.sqrt(a), f.L, label=f"S[{f.label}]"))
            for m, a, f in zip(best, acc, fs)]


def poisson_maximal(f: SampledLine, t_grid=None, scales: int = 64) -> SampledLine:
    """Nontangential sup of the harmonic extension over |y - x| < t."""
    return _poisson_pass([f], _scales(f, t_grid, scales))[0][0]


def square_function(f: SampledLine, t_grid=None, scales: int = 64) -> SampledLine:
    """Cone aggregate of the extension gradient |grad u|^2 over |y - x| < t,
    discretized on the levels u = f * P_t (see _poisson_pass)."""
    return _poisson_pass([f], _scales(f, t_grid, scales))[0][1]


# ---------------------------------------------------------------------------
# H1 proxy and report


def h1_proxy_norm(f: SampledLine) -> float:
    """|f|_1 + |Hf|_1: the grid-stable H1 characterization.

    The transform side uses the tail-aware method so the 1/x content of
    Hf is integrated analytically; the input must be mean-free-ish for
    the sum to be finite (otherwise |Hf|_1 grows with the window).
    """
    hf = hilbert_with_tails(SampledLine.from_values(f.values.real, f.L))
    return lp_norm(f, 1.0) + lp_norm(hf, 1.0)


@dataclass(frozen=True)
class H1Report:
    """The computable H1 characterizations of one input, with ratios."""

    smooth_maximal: float
    poisson_maximal: float
    square: float
    proxy: float  # |f|_1 + |Hf|_1
    atomic_bound: float | None = None

    def quantities(self) -> dict:
        out = {"smooth_maximal": self.smooth_maximal,
               "poisson_maximal": self.poisson_maximal,
               "square": self.square,
               "proxy": self.proxy}
        if self.atomic_bound is not None:
            out["atomic_bound"] = self.atomic_bound
        return out

    def ratios(self) -> dict:
        qs = self.quantities()
        names = sorted(qs)
        out = {}
        for i, a in enumerate(names):
            for b in names[i + 1:]:
                out[f"{a}/{b}"] = qs[a] / qs[b] if qs[b] > 0 else math.inf
        return out

    @property
    def finite(self) -> bool:
        return all(math.isfinite(v) and v > 0 for v in self.quantities().values())


def h1_report(f, L: float = 64.0, N: int = 1 << 12, scales: int = 48) -> H1Report:
    """All computable H1 quantities for a SampledLine or decomposition;
    M_P and S come from one Poisson pass over the ``scales`` heights, and
    that pass and the smooth maximal function read the one spectrum f
    keeps (both transform at length 2N).

    ``f`` may also be a non-empty sequence of these, a corpus on one grid:
    then the result is the list of their reports, each equal to its
    input's own report bit for bit, and the two passes run for the whole
    corpus at once, each stack of kernel rows built and transformed once."""
    fs, one = _corpus(f)
    atomic = [g.atomic_bound if isinstance(g, AtomicDecomposition) else None for g in fs]
    fs = [g.synthesize(L, N) if isinstance(g, AtomicDecomposition) else g for g in fs]
    passes = _poisson_pass(fs, _scales(fs[0], None, scales))
    smooth = smooth_maximal(fs, scales=scales)
    out = [H1Report(lp_norm(sm, 1.0), lp_norm(m_p, 1.0), lp_norm(s, 1.0), h1_proxy_norm(g), a)
           for g, (m_p, s), sm, a in zip(fs, passes, smooth, atomic)]
    return out[0] if one else out


# ---------------------------------------------------------------------------
# BMO


def bmo_norm(g: SampledLine, depth: int = 10) -> float:
    """Max mean oscillation over dyadic subintervals of the window, plus
    the same family shifted by half a step at every depth."""
    if depth < 1:
        raise ValueError("depth must be >= 1")
    vals = g.values.real
    n = g.N
    best = 0.0
    for d in range(1, depth + 1):
        pieces = 1 << d
        if pieces > n:
            break
        size = n // pieces
        for offset in (0, size // 2):
            blocks = vals[offset:offset + (n - offset) // size * size].reshape(-1, size)
            means = blocks.mean(axis=1, keepdims=True)
            osc = np.abs(blocks - means).mean(axis=1)
            best = max(best, float(osc.max()))
    return best


# ---------------------------------------------------------------------------
# Transform bounds on H1 and BMO


def h1_lowerbound_check(k: Kernel, epsilons, delta: float = 0.1,
                        L: float = 1e4, tol: float = 1e-9) -> SweepResult:
    """Residual decay witnessing the kernel mass as an H1 lower bound.

    For the truncated kernel (mass below ``delta`` removed, as the proof
    mechanism requires) and boundary data (x+i)^(-1-eps), the relative L1
    residual |T f* - f* I|_1 / |f*|_1 with I the truncated mass decays as
    eps shrinks; the sweep records it per epsilon.
    """
    eps_list = tuple(float(e) for e in epsilons)
    kd = truncate_below(k, delta) if k.support[0] < delta else k
    m = moment(kd, 1.0, tol=tol)
    if not m.finite:
        raise ValueError("H1 residual check requires an integrable kernel")
    mass = m.value
    residuals = []
    for eps in eps_list:
        s = 1.0 + eps
        f_star = CayleyPower(s, 1.0).eval_batch  # on the real axis
        if mass == 0.0:
            residuals.append(0.0)
            continue

        def diff(xs):
            return transform_values(kd, f_star, xs, tol=tol) - f_star(xs) * mass

        num = lp_norm_function(diff, 1.0, L, 1e-6, s, tol, even_modulus=True)
        den = lp_norm_function(f_star, 1.0, L, 1e-6, s, tol, even_modulus=True)
        # normalized by the kernel mass: invariant under kernel scaling
        residuals.append(num / (den * mass))
    return SweepResult(p=1.0, epsilons=eps_list, quotients=tuple(residuals),
                       moment=mass, family=f"h1-residual(delta={delta:g})")


def bmo_bound_check(k: Kernel, corpus=None, L: float = 64.0, N: int = 1 << 12):
    """Transform and companion-transform BMO norms against their bounds.

    Returns (reciprocal mass, mass, measured): the integrals of phi/t and
    of phi, and for each input of the corpus (``bmo_corpus`` by default)
    and each operator whose constant is finite, ("transform" or
    "companion", input name, |out|_BMO, constant * |input|_BMO).  The
    bounds hold up to discretization slack; the step function witnesses
    how close the transform comes to its bound.
    """
    m_T = moment_exponent(k, 0.0, tol=_BMO_TOL)       # integral of phi/t
    m_S = moment_exponent(k, 1.0, tol=_BMO_TOL)       # integral of phi
    corpus = corpus if corpus is not None else bmo_corpus(L, N)
    h = 2.0 * L / N
    xs = -L + h * (np.arange(N) + 0.5)  # midpoints: transforms of steps
    measured = []
    for name, fn in corpus:
        g = SampledLine.from_values(np.asarray(fn(xs)), L, label=name)
        gn = bmo_norm(g, BMO_DEPTH)
        for op, mv in (("transform", m_T), ("companion", m_S)):
            if not mv.finite:
                continue
            if op == "transform":
                out = transform_values(k, fn, xs, tol=_BMO_TOL)
            else:
                out = _sa_values(k, fn, xs, _BMO_TOL)
            on = bmo_norm(SampledLine.from_values(out, L), BMO_DEPTH)
            measured.append((op, name, on, mv.value * gn))
    return m_T.value, m_S.value, measured


def bmo_corpus(L: float, N: int):
    """Bounded test functions with honest whole-line tags."""
    return [
        ("step", lambda x: np.where(np.asarray(x) >= 0, 1.0, 0.0)),
        ("clipped-log", lambda x: np.log(
            np.clip(np.abs(np.asarray(x, dtype=float)), 1e-12, None))
            .clip(-20.0, 20.0)),
        ("sign-sine", lambda x: np.sin(np.asarray(x, dtype=float) / 4.0)),
        ("gauss", lambda x: np.exp(-np.asarray(x, dtype=float) ** 2)),
    ]
