"""The half-plane transform on the Cayley powers against closed forms.

For f(z) = (z + i*sigma)^-beta, f(z/t) = t^beta (z + i*sigma*t)^-beta, and
Euler's integral for 2F1 (DLMF 15.6.1) gives the transform:

    cesaro:        z^-beta / beta * 2F1(beta, beta; beta + 1; -i*sigma/z)
    gencesaro(a):  a B(beta, a) z^-beta 2F1(beta, beta; a + beta; -i*sigma/z)
    hardy:         ((z + i*sigma)^(1-beta) - (i*sigma)^(1-beta)) / ((1 - beta) z)

The references come from mpmath at 30 digits and share no code with the
quadrature.  The points go to ``transform_values`` all in one call,
through the scalar path (one CayleyPower) and through the family path (a
CayleyFamily of every beta at once), and one point per call, so a value
may not depend on the points it shares its t-schedule with.

The ``norm`` sweep's quotients for cesaro at p = 2 are checked against
exact values stored below, which ``_exact_quotient`` (about 4 s each)
computes from the same closed form; run this file to print them.
"""

import numpy as np
import pytest

mp = pytest.importorskip("mpmath")

from hhl.halfplane import CayleyFamily, CayleyPower
from hhl.hausdorff import norm_lower_bound_sweep, transform_values
from hhl.kernels import cesaro, gen_cesaro, hardy_type

# |z| from 1e-3 to 1e60, on the axis (both sides) and off it
POINTS = np.array([1e-3, -2e-3 + 1e-3j, 0.5j, -1.0, 3.0 + 4.0j, -1e3 + 1.0j,
                   1e6, -1e30 + 1e29j, 1e60])

CASES = {
    # name: (kernel, betas, closed form (beta, z) at sigma = 1)
    "cesaro": (cesaro, (0.27, 0.52, 1.0, 2.0),
               lambda b, z: z ** -b / b * mp.hyp2f1(b, b, b + 1, -1j / z)),
    "gencesaro2": (lambda: gen_cesaro(2.0), (0.27, 0.52, 1.0, 2.0),
                   lambda b, z: 2 * mp.beta(b, 2) * z ** -b
                   * mp.hyp2f1(b, b, b + 2, -1j / z)),
    # beta >= 1 at |z| = 1e60 falls below the absolute tol
    "hardy": (hardy_type, (0.27, 0.52),
              lambda b, z: ((z + 1j) ** (1 - b) - (1j) ** (1 - b)) / ((1 - b) * z)),
}


def _exact(form, beta):
    with mp.workdps(30):
        return np.array([complex(form(mp.mpf(beta), mp.mpc(z))) for z in POINTS])


@pytest.mark.parametrize("name", sorted(CASES))
def test_grouped_transform_matches_closed_form(name):
    kernel, betas, form = CASES[name]
    k = kernel()
    family = CayleyFamily(tuple(CayleyPower(b, 1.0) for b in betas))
    together = transform_values(k, family.eval_batch, POINTS, tol=1e-10)
    assert together.shape == POINTS.shape + (len(betas),)
    for j, beta in enumerate(betas):
        exact = _exact(form, beta)
        f = CayleyPower(beta, 1.0).eval_batch
        alone = transform_values(k, f, POINTS, tol=1e-10)
        single = np.array([transform_values(k, f, z, tol=1e-10) for z in POINTS])
        for got in (alone, together[:, j], single):
            assert np.max(np.abs(got - exact) / np.abs(exact)) <= 1e-9


# |T f*|_2 / |f*|_2 for cesaro and f* = (x + i)^-(1/2 + eps), by _exact_quotient
EXACT_QUOTIENTS = {0.2: 1.82362438517706, 0.1: 1.90072329410621,
                   0.05: 1.94693670792973, 0.02: 1.97784310453901}


def _exact_quotient(eps, dps=25, cut=200):
    """The cesaro p = 2 quotient at ``eps`` in mpmath: |T f*|^2 integrated
    in s = log|x| on both sides out to |x| = e^cut, where the tail is
    closed by its leading power |x|^-2beta / beta^2 (the next term is
    e^(-2 cut) relative), over |f*|_2^2 = B(1/2, beta - 1/2)."""
    with mp.workdps(dps):
        b = mp.mpf(1) / 2 + mp.mpf(eps)

        def sq(s, sign):
            z = mp.mpc(sign * mp.exp(s), 0)
            t = z ** -b / b * mp.hyp2f1(b, b, b + 1, -1j / z)
            return abs(t) ** 2 * mp.exp(s)

        breaks = [-mp.inf, -10, 0, 10, 50, 100, cut]
        num = sum(mp.quad(lambda s: sq(s, sign), breaks) for sign in (1, -1))
        num += 2 * mp.exp(cut * (1 - 2 * b)) / ((2 * b - 1) * b ** 2)
        return mp.sqrt(num / mp.beta(mp.mpf(1) / 2, b - mp.mpf(1) / 2))


def test_norm_sweep_quotients_match_exact():
    eps = tuple(EXACT_QUOTIENTS)
    got = norm_lower_bound_sweep(cesaro(), 2.0, eps).quotients
    for e, q in zip(eps, got):
        assert abs(q / EXACT_QUOTIENTS[e] - 1.0) <= 1e-8


if __name__ == "__main__":
    for e in EXACT_QUOTIENTS:
        print(e, mp.nstr(_exact_quotient(e), 15))
