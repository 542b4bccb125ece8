"""Real-variable H1 machinery and BMO norms.

Atoms (supported on an interval, bounded by the reciprocal length, mean
zero), their weighted sums, the smooth and nontangential Poisson maximal
functions, the cone square function, the computable H1 proxy norm
|f|_1 + |Hf|_1, dyadic BMO norms, and the lower-bound/boundedness checks
for the averaging transform on these spaces.

The equivalence constants between the H1 characterizations depend on the
mollifier and are not universal numbers; the suite measures the ratios on
a seeded corpus and regresses them against corridors frozen after one
calibration run.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np
from scipy.ndimage import maximum_filter1d, uniform_filter1d
from scipy.signal import fftconvolve

from .halfplane import _poisson_grid_values
from .hausdorff import SweepResult, transform_values
from .kernels import Kernel, moment, truncate_below
from .realline import SampledLine, lp_norm, lp_norm_function
from .report import CheckRow, VerificationReport

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
    "bmo_norm_brute",
    "h1_lowerbound_check",
    "bmo_bound_check",
    "RATIO_CORRIDOR",
]

ATOM_SHAPES = ("haar", "sine", "bump")

# pairwise-ratio corridor for the H1 characterizations, frozen after one
# calibration run over the seeded atom corpus (seed 20240811: observed
# range 0.24 .. 4.51, worst case the raw haar atom's proxy ratio); the
# equivalences guarantee some corridor exists, not its value
RATIO_CORRIDOR = (0.05, 20.0)


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


def _log_scales(f: SampledLine, count: int) -> np.ndarray:
    return np.geomspace(f.h, 4.0 * f.L, count)


def smooth_maximal(f: SampledLine, t_grid=None, scales: int = 64) -> SampledLine:
    """sup over t of |f * Phi_t| for a fixed normalized Gaussian Phi.

    The supremum runs over log-spaced scales between the grid spacing and
    four window widths, the range a finite grid can resolve.
    """
    ts = np.asarray(t_grid, dtype=float) if t_grid is not None \
        else _log_scales(f, scales)
    best = np.zeros(f.N)
    xs = f.grid()
    for t in ts:
        half = min(8.0 * t, 2.0 * f.L)
        m = int(np.ceil(half / f.h))
        ker_x = np.arange(-m, m + 1) * f.h
        ker = np.exp(-0.5 * (ker_x / t) ** 2) / (t * math.sqrt(2 * math.pi))
        ker *= f.h
        conv = fftconvolve(f.values, ker.astype(complex), mode="same")
        best = np.maximum(best, np.abs(conv))
    return SampledLine.from_values(best, f.L, label=f"M_smooth[{f.label}]")


def poisson_maximal(f: SampledLine, t_grid=None, scales: int = 64) -> SampledLine:
    """Nontangential sup of the harmonic extension over |y - x| < t."""
    ts = np.asarray(t_grid, dtype=float) if t_grid is not None \
        else _log_scales(f, scales)
    best = np.zeros(f.N)
    for t in ts:
        u = np.abs(_poisson_grid_values(f, float(t)))
        radius = int(t / f.h)
        if radius > 0:
            u = maximum_filter1d(u, size=2 * radius + 1, mode="nearest")
        best = np.maximum(best, u)
    return SampledLine.from_values(best, f.L, label=f"M_P[{f.label}]")


def square_function(f: SampledLine, t_grid=None, scales: int = 64) -> SampledLine:
    """Cone aggregate of the extension gradient, discretized.

    u = f * P_t on log-spaced levels; gradients by central differences in
    x and t; the cone integral collects h * dt cells with |y - x| < t.
    """
    ts = np.asarray(t_grid, dtype=float) if t_grid is not None \
        else _log_scales(f, scales)
    ts = np.sort(ts)
    levels = [np.real(_poisson_grid_values(f, float(t))) for t in ts] if \
        np.all(np.abs(f.values.imag) == 0) else \
        [_poisson_grid_values(f, float(t)) for t in ts]
    acc = np.zeros(f.N)
    for i, t in enumerate(ts):
        u = levels[i]
        u_x = np.gradient(u, f.h)
        lo = levels[max(i - 1, 0)]
        hi = levels[min(i + 1, len(ts) - 1)]
        dt_span = ts[min(i + 1, len(ts) - 1)] - ts[max(i - 1, 0)]
        u_t = (hi - lo) / dt_span if dt_span > 0 else np.zeros_like(u)
        dens = np.abs(u_t) ** 2 + np.abs(u_x) ** 2
        # cell thickness in t around this level
        t_lo = ts[i - 1] if i > 0 else ts[i] / 2.0
        t_hi = ts[i + 1] if i + 1 < len(ts) else ts[i]
        dt = 0.5 * (t_hi - t_lo) if len(ts) > 1 else ts[i]
        radius = int(t / f.h)
        cone = uniform_filter1d(dens, size=2 * radius + 1, mode="nearest") \
            * (2 * radius + 1) if radius > 0 else dens
        acc += cone * f.h * dt
    return SampledLine.from_values(np.sqrt(acc), f.L, label=f"S[{f.label}]")


# ---------------------------------------------------------------------------
# H1 proxy and report


def h1_proxy_norm(f: SampledLine, method: str = "fft") -> float:
    """|f|_1 + |Hf|_1: the grid-stable H1 characterization.

    The transform side uses the tail-aware method so the 1/x content of
    Hf is integrated analytically; the input must be mean-free-ish for
    the sum to be finite (otherwise |Hf|_1 grows with the window).
    """
    from .hilbert import hilbert_with_tails
    hf = hilbert_with_tails(SampledLine.from_values(f.values.real, f.L),
                            method=method)
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
    """All computable H1 quantities for a SampledLine or decomposition."""
    atomic = None
    if isinstance(f, AtomicDecomposition):
        atomic = f.atomic_bound
        f = f.synthesize(L, N)
    return H1Report(
        smooth_maximal=lp_norm(smooth_maximal(f, scales=scales), 1.0),
        poisson_maximal=lp_norm(poisson_maximal(f, scales=scales), 1.0),
        square=lp_norm(square_function(f, scales=scales), 1.0),
        proxy=h1_proxy_norm(f),
        atomic_bound=atomic)


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
            if offset + pieces * size > n:
                usable = vals[offset:offset + (n - offset) // size * size]
            else:
                usable = vals[offset:offset + pieces * size]
            if usable.size < size:
                continue
            blocks = usable.reshape(-1, size)
            means = blocks.mean(axis=1, keepdims=True)
            osc = np.abs(blocks - means).mean(axis=1)
            best = max(best, float(osc.max()))
    return best


def bmo_norm_brute(g: SampledLine, max_n: int = 512) -> float:
    """Oracle: mean oscillation over every discrete subinterval.

    Quadratic cost; intended for small grids in tests.
    """
    vals = g.values.real
    n = min(g.N, max_n)
    step = max(1, g.N // n)
    v = vals[::step]
    n = v.size
    csum = np.concatenate([[0.0], np.cumsum(v)])
    best = 0.0
    for i in range(n):
        for j in range(i + 2, n + 1):
            m = (csum[j] - csum[i]) / (j - i)
            best = max(best, float(np.mean(np.abs(v[i:j] - m))))
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

        def f_star(x):
            x = np.asarray(x, dtype=float)
            with np.errstate(over="ignore", invalid="ignore"):
                v = (x + 1j) ** (-s)
            return np.nan_to_num(v)

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
                       moment=mass, best=max(residuals),
                       family=f"h1-residual(delta={delta:g})")


def bmo_bound_check(k: Kernel, corpus=None, L: float = 64.0, N: int = 1 << 12,
                    depth: int = 9, tol: float = 1e-9) -> VerificationReport:
    """Transform and companion-transform BMO bounds over a corpus.

    Asserts |T g|_BMO <= (reciprocal mass) |g|_BMO and the companion
    analogue with the plain mass, each within 5% discretization slack,
    and records the achieved ratio for the step-function witness.
    """
    from .adjoint import _sa_values
    from .kernels import moment_exponent
    rows = []
    m_T = moment_exponent(k, 0.0, tol=tol)       # integral of phi/t
    m_S = moment_exponent(k, 1.0, tol=tol)       # integral of phi
    corpus = corpus if corpus is not None else bmo_corpus(L, N)
    h = 2.0 * L / N
    xs = -L + h * (np.arange(N) + 0.5)  # midpoints: transforms of steps
    for name, fn in corpus:
        g = SampledLine.from_values(np.asarray(fn(xs)), L, label=name)
        gn = bmo_norm(g, depth)
        for op, mv, tag in (("transform", m_T, "bmo-transform"),
                            ("companion", m_S, "bmo-companion")):
            if not mv.finite:
                continue
            if op == "transform":
                out = transform_values(k, fn, xs, tol=tol)
            else:
                out = _sa_values(k, fn, xs, tol)
            on = bmo_norm(SampledLine.from_values(out, L), depth)
            bound = mv.value * gn
            resid = 0.0 if bound == 0 and on <= 1e-12 else \
                (on / bound if bound > 0 else math.inf)
            rows.append(CheckRow(
                suite="bmo", check=f"{op} on {name}", anchor=tag,
                computed=on, predicted=bound, residual=resid,
                tol=1.05, passed=bool(resid <= 1.05)))
    return VerificationReport(
        suite="bmo", rows=rows,
        environment={"kernel": k.label, "L": L, "N": N, "depth": depth,
                     "reciprocal_mass": m_T.value, "mass": m_S.value})


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
