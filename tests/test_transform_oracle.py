"""The half-plane transform on the Cayley powers against closed forms.

For f(z) = (z + i*sigma)^-beta, f(z/t) = t^beta (z + i*sigma*t)^-beta, and
Euler's integral for 2F1 (DLMF 15.6.1) gives the transform:

    cesaro:        z^-beta / beta * 2F1(beta, beta; beta + 1; -i*sigma/z)
    gencesaro(a):  a B(beta, a) z^-beta 2F1(beta, beta; a + beta; -i*sigma/z)
    hardy:         ((z + i*sigma)^(1-beta) - (i*sigma)^(1-beta)) / ((1 - beta) z)

The references come from mpmath at 30 digits and share no code with the
quadrature.  All points go to one ``transform_values`` call, through the
scalar path (one CayleyPower) and through the family path (a CayleyFamily
of every beta at once).
"""

import numpy as np
import pytest

mp = pytest.importorskip("mpmath")

from hhl.halfplane import CayleyFamily, CayleyPower
from hhl.hausdorff import transform_values
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
        alone = transform_values(k, CayleyPower(beta, 1.0).eval_batch, POINTS, tol=1e-10)
        for got in (alone, together[:, j]):
            assert np.max(np.abs(got - exact) / np.abs(exact)) <= 1e-9
