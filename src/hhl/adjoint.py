"""The companion operator S_a f(x) = integral of f(tx) a(t) dt.

S_a coincides with the averaging transform for the reciprocal kernel
t -> a(1/t)/t, and under the L^p pairing it is the Banach-space adjoint
of the transform with weight a.  This module computes its sharp constant
(a kernel moment), its values by direct integration in t (independent of
the reciprocal reduction, so each checks the other), and the duality
residual.  The t-integrand of S_a is a row-weighted pair (a(t), f(tx)):
the quadrature folds the weight into its rule instead of scaling the
panel of dilated values.
"""

from __future__ import annotations

import math

import numpy as np

from .hausdorff import transform_values
from .kernels import Kernel, eval_kernel, moment_exponent
from .quadrature import geometric_panels, integrate_batched, integrate_halfline
from .realline import SampledLine, eval_at, lp_norm

__all__ = [
    "sa_moment",
    "duality_residual",
]

# output points per adaptive t-schedule: a real node-by-point panel is
# then 21 x 512 doubles, 86 KB, under glibc's default 128 KB mmap
# threshold, so its temporaries come from the heap whatever the allocator's
# dynamic threshold has reached
_GROUP = 512


def sa_moment(a: Kernel, p: float, tol: float = 1e-9):
    """integral of t^(-1/p) a(t) dt: the sharp constant of S_a on the
    p-scale; equals the p-moment of the reciprocal kernel."""
    s = 0.0 if math.isinf(p) else 1.0 / p
    return moment_exponent(a, 1.0 - s, tol=tol)


def _sa_values(a: Kernel, f_of, zs, tol: float) -> np.ndarray:
    """S_a f at ``zs``; a real ``f_of`` gives a float array (bit for bit
    the real part of the complex result), and a scalar z a complex one.

    The points are sorted by |z| (ties by value) and cut into contiguous
    groups of at most 512, each with its own adaptive schedule in t, so
    the node-by-point panels stay small; a point's value depends on the
    set of points passed, never on their order.
    """
    zs = np.asarray(zs)
    scalar = zs.ndim == 0
    zs = np.atleast_1d(zs)
    out = None
    order = np.lexsort((zs.imag, zs.real, np.abs(zs)))
    rows = {}  # kernel row per panel, shared by the groups' schedules
    for start in range(0, zs.size, _GROUP):
        idx = order[start:start + _GROUP]
        group = zs[idx]

        def integrand(ts):
            with np.errstate(over="ignore"):
                args = group[None, :] * ts[:, None]
            vals = np.asarray(f_of(args))
            if (key := ts.tobytes()) not in rows:
                rows[key] = eval_kernel(a, ts)
            return rows[key], vals if vals.dtype.kind == "c" else np.asarray(vals, float)

        res = integrate_halfline(integrand, tol=tol, support=a.support)
        if res.diverges:
            raise ValueError("companion transform diverges on this input")
        vals = np.asarray(res.value)
        if out is None:
            out = np.empty(zs.shape, dtype=vals.dtype)
        out[idx] = vals
    if out is None:  # no points
        return np.empty(zs.shape)
    return complex(out[0]) if scalar else out


def duality_residual(k: Kernel, f: SampledLine, g: SampledLine, p,
                     tol: float = 1e-10):
    """|<T_phi f, g> - <f, S_phi g>| / (|f|_p |g|_q), q conjugate to p.

    Both pairings are grid integrals of independently computed transforms;
    the residual vanishes identically in exact arithmetic.  The pairings
    do not depend on p, so ``p`` may be a sequence of exponents: both are
    computed once and the residuals come back as a list in that order.
    """
    ps = list(p) if np.ndim(p) else [p]
    for pp in ps:
        if not (1.0 < pp < math.inf):
            raise ValueError("duality pairing requires p in (1, inf)")
    if f.L != g.L or f.N != g.N:
        raise ValueError("pairing requires a common grid")
    # each side pairs its own transform (computed pointwise at graded
    # panel nodes, never at x = 0 where the transform can carry a log
    # point) against the other function; the two quadratures share nothing
    L = f.L
    panels = geometric_panels(1e-6, L)

    def paired(op_values, other):
        total = 0.0 + 0.0j
        for side in (+1.0, -1.0):
            def dens(xs, sd=side):
                return op_values(sd * xs) * eval_at(other, sd * xs)
            total += np.asarray(
                integrate_batched(dens, panels, tol=tol).value).item()
        return total

    lhs = paired(lambda xs: transform_values(
        k, lambda a: eval_at(f, a), xs, tol=tol / 10.0), g)
    rhs = paired(lambda xs: _sa_values(
        k, lambda a: eval_at(g, a), xs, tol / 10.0), f)
    out = []
    for pp in ps:
        den = lp_norm(f, pp) * lp_norm(g, pp / (pp - 1.0))
        out.append(0.0 if den == 0 else abs(lhs - rhs) / den)
    return out if np.ndim(p) else out[0]
