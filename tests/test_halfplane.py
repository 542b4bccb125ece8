import cmath
import math

import numpy as np
import pytest

from hhl.halfplane import (CayleyFamily, CayleyPower, InverseSquare, _cayley_powers,
                           hardy_norm, poisson_extend, slice_norm)
from hhl.realline import SampledLine


def poisson1(x):
    x = np.asarray(x, dtype=float)
    return (1.0 / math.pi) / (x * x + 1.0)


def test_eval_inverse_square_at_i():
    assert InverseSquare().eval(1j) == pytest.approx(-0.25)


def test_eval_cayley_at_i():
    assert CayleyPower(1.0, 1.0).eval(1j) == pytest.approx(-0.5j)


def test_eval_branch_oracle():
    # polar-form oracle for the principal branch at z = -1 + i
    f = CayleyPower(0.5, 1.0)
    zeta = -1 + 2j
    expect = abs(zeta) ** -0.5 * cmath.exp(-0.5j * cmath.phase(zeta))
    got = f.eval(-1 + 1j)
    assert got == pytest.approx(expect, rel=1e-13)
    assert got.real > 0 and got.imag < 0
    assert abs(got) == pytest.approx(5.0 ** -0.25, rel=1e-13)


@pytest.mark.parametrize("beta", [0.27, 0.52, 0.7, 1.0, 1.52, 2.0])
def test_eval_batch_matches_complex_power(beta):
    # the real polar form against numpy's principal complex power, from
    # |x| = 1e-300 to 1e300 on both sides; underflowed values sit below
    # 1e-290 on both
    mag = np.logspace(-300, 300, 1201)
    xs = np.concatenate([-mag[::-1], mag])
    for sigma, y in ((1.0, 0.0), (1e-3, 0.25)):
        z = xs + 1j * y
        got = CayleyPower(beta, sigma).eval_batch(z)
        with np.errstate(all="ignore"):
            ref = (z + 1j * sigma) ** -beta
        big = np.abs(ref) > 1e-290
        assert np.all(np.abs(got[big] - ref[big]) <= 1e-12 * np.abs(ref[big]))
        assert np.all(np.abs(got[~big]) <= 1e-290)
    odd = np.array([np.inf, -np.inf, np.nan, 1j * np.inf,
                    complex(np.inf, np.inf), complex(np.nan, 1.0)])
    assert np.all(CayleyPower(beta, 1.0).eval_batch(odd) == 0.0)


@pytest.mark.parametrize("f", [InverseSquare(), CayleyPower(0.52, 1.0),
                               CayleyPower(2.0, 1e-3)])
def test_eval_batch_non_finite_to_zero(f):
    # overflowing arguments, as a transform integrand forms z/t for tiny t
    with np.errstate(all="ignore"):
        over = np.array([3.0 + 0.5j, -2.0 + 1.0j])[None, :] \
            / np.array([1e-310, 5e-324])[:, None]
    huge = [1.5e308 + 1.5e308j, complex(np.inf, np.inf), np.nan]
    if isinstance(f, InverseSquare):
        huge.append(1e308 + 1e308j)  # z * z overflows to inf - inf
    odd = np.concatenate([over.ravel(), huge])
    assert np.all(f.eval_batch(odd) == 0.0)
    # finite values are returned as nan_to_num would leave them, with or
    # without non-finite neighbours in the same batch
    z = np.linspace(-50.0, 50.0, 201) + 0.25j
    got = f.eval_batch(z)
    assert np.isfinite(got).all() and got.dtype == complex
    assert got.tobytes() == np.nan_to_num(got, nan=0.0, posinf=0.0,
                                          neginf=0.0).tobytes()
    mixed = f.eval_batch(np.concatenate([z, odd]))
    assert mixed[:z.size].tobytes() == got.tobytes()
    assert np.all(mixed[z.size:] == 0.0)


KERNEL_BETAS = (0.27, 0.52, 1.0, 1.5, 2.0, 2.5, 3.7)


def _kernel_points(beta, sigma):
    """|x| from 1e-12 to 1e12 on both sides at heights 0 to 1e3, and the
    points where beta * arg(z + i sigma) crosses a multiple of pi (the
    phase tangent's pole), on both sides of each crossing."""
    mag = np.logspace(-12, 12, 97)
    xs = np.concatenate([-mag[::-1], [0.0], mag])
    grid = (xs[None, :] + 1j * np.array([0.0, 1e-9, 1e-3, 0.5, 1.0, 30.0, 1e3])[:, None]).ravel()
    crossings = []
    for k in range(1, math.ceil(beta)):
        theta = k * math.pi / beta
        if theta >= math.pi:
            break
        for rho in (1.5, 10.0, 1e4):
            r = rho * sigma / math.sin(theta)  # keeps Im z >= 0.5 sigma
            for d in (0.0, 1e-15, -1e-15, 1e-12, -1e-12, 1e-6, -1e-6):
                crossings.append(r * np.exp(1j * (theta + d)) - 1j * sigma)
    return np.concatenate([grid, np.array(crossings, dtype=complex)])


@pytest.mark.parametrize("sigma", [1.0, 1e-3])
@pytest.mark.parametrize("beta", KERNEL_BETAS)
def test_cayley_kernel_against_long_double(beta, sigma):
    # the one-tangent polar kernel against the principal complex power in
    # extended precision, from the same double points
    z = _kernel_points(beta, sigma)
    got = CayleyPower(beta, sigma).eval_batch(z)
    zeta = z.astype(np.clongdouble) + np.clongdouble(1j) * np.longdouble(sigma)
    ref = zeta ** np.longdouble(-beta)
    rel = np.abs(got.astype(np.clongdouble) - ref) / np.abs(ref)
    assert float(np.max(rel)) <= 4e-15


def test_cayley_family_members_bit_for_bit():
    # each member of a family, shared sigma or not, on a 2-d batch as the
    # transform hands it over, is its own CayleyPower's values bit for bit
    members = tuple(CayleyPower(b, s) for b, s in
                    ((0.7, 1.0), (3.7, 1.0), (0.52, 1e-3), (2.0, 0.25), (1.0, 1.0)))
    fam = CayleyFamily(members)
    z = _kernel_points(3.7, 1e-3).reshape(-1, 7)
    got = fam.eval_batch(z)
    assert got.shape == z.shape + (len(members),)
    for j, m in enumerate(members):
        assert got[..., j].tobytes() == m.eval_batch(z).tobytes()
    assert fam.tail_power.tolist() == [m.beta for m in members]
    assert fam.feature_scale == 1e-3 and fam.boundary_ok
    with pytest.raises(ValueError):
        CayleyFamily(())


def _cayley_reference(z, members):
    """``_cayley_powers`` without its no-flip path: every member takes the
    flip test, as the kernel did before the path was added."""
    zs = np.asarray(z, dtype=complex)
    out = np.empty(zs.shape + (len(members),), dtype=complex)
    with np.errstate(over="ignore", invalid="ignore", divide="ignore"):
        for sigma in dict.fromkeys(s for _, s in members):
            zeta = zs + 1j * sigma
            mod = np.abs(zeta)
            theta = np.arctan2(zeta.imag, zeta.real)
            for j, (beta, s) in enumerate(members):
                if s != sigma:
                    continue
                h = np.tan((-0.5 * beta) * theta)
                flip = np.abs(h) > 1.0
                h = np.where(flip, 1.0 / h, h)
                h2 = h * h
                den = 1.0 + h2
                re = np.where(flip, h2 - 1.0, 1.0 - h2)
                re /= den
                h += h
                h /= den
                r = np.power(mod, -beta)
                np.multiply(r, re, out=out[..., j].real)
                np.multiply(r, h, out=out[..., j].imag)
    if np.isfinite(out).all():
        return out
    return np.nan_to_num(out, nan=0.0, posinf=0.0, neginf=0.0)


@pytest.mark.parametrize("beta", [0.27, 0.7, 1.0, 1.9])
def test_cayley_no_flip_path_bit_for_bit(beta):
    # batches on both sides of the guard 0.5 * beta * max|arg zeta| <= 0.78:
    # x > 0 out to |zeta| = inf (where |zeta|^-beta is 0), x < 0 too, arg
    # zeta just inside and just outside the guard's edge, and a NaN among
    # x > 0; each against the reference kernel, on a 2-d batch as the
    # transform hands it over, alone and in a family sharing sigma
    mag = np.concatenate([np.logspace(-12, 308, 81), [1.7e308, np.inf]])
    heights = np.array([0.0, 1e-9, 1e-3, 0.5, 1.0])[:, None]
    right = mag[None, :] + 1j * heights
    both = np.concatenate([-mag[::-1], mag])[None, :] + 1j * heights
    sides = set()
    for sigma in (1e-3, 1.0):
        edge = min(1.56 / beta, 3.1)
        rho = np.logspace(2, 8, 8)[:, None] * sigma  # keeps Im z >= 0
        near = [rho * np.exp(1j * a * edge) - 1j * sigma
                for a in (1.0 - 1e-9, 1.0 + 1e-9)]
        nan = right.copy()
        nan[2, 40] = np.nan
        for batch in (right, both, *near, nan):
            with np.errstate(invalid="ignore"):
                tmax = np.max(np.abs(np.angle(batch + 1j * sigma)))
            sides.add(bool(0.5 * beta * tmax <= 0.78))
            for members in (((beta, sigma),), ((0.27, sigma), (beta, sigma), (beta, 2.0))):
                got = _cayley_powers(batch, members)
                assert got.tobytes() == _cayley_reference(batch, members).tobytes()
    assert sides == {True, False}


def test_eval_rejects_lower_halfplane():
    with pytest.raises(ValueError):
        CayleyPower(1.0, 1.0).eval(1 - 1j)
    with pytest.raises(ValueError):
        CayleyPower(0.5, 0.0).eval(1.0 + 0.0j)  # sigma=0 has no boundary values


def test_sigma_zero_requires_small_beta():
    with pytest.raises(ValueError):
        CayleyPower(1.5, 0.0)


def test_hardy_norm_inverse_square():
    est = hardy_norm(InverseSquare(), 1.0, y_grid=(1.0, 0.1, 0.0), L=1e4)
    assert est.estimate == pytest.approx(math.pi, rel=1e-3)
    assert est.monotone and est.finite


def test_hardy_norm_cayley_h2():
    est = hardy_norm(CayleyPower(1.0, 1.0), 2.0, y_grid=(1.0, 0.1, 0.0), L=1e4)
    assert est.estimate == pytest.approx(math.sqrt(math.pi), rel=1e-8)


def test_hardy_norm_extremizer_value():
    # |f_eps|^p on the boundary integrates (x^2+1)^(-(1+p*eps)/2)
    p, eps = 2.0, 0.5
    est = hardy_norm(CayleyPower(1.0 / p + eps, 1.0), p, y_grid=(0.5, 0.1, 0.0), L=1e4)
    assert est.estimate == pytest.approx(math.sqrt(math.pi), rel=1e-8)


def test_slice_norm_monotone_in_y():
    for f, p in ((InverseSquare(), 1.0), (CayleyPower(1.0, 1.0), 2.0),
                 (CayleyPower(0.75, 1.0), 2.0)):
        norms = [slice_norm(f, y, p, 1e4) for y in (1.0, 0.5, 0.1, 0.05, 0.01)]
        for a, b in zip(norms, norms[1:]):
            assert a <= b * (1.0 + 1e-8)


def test_hardy_norm_flags_divergence():
    est = hardy_norm(CayleyPower(0.4, 1.0), 2.0, y_grid=(1.0, 0.1), L=1e3)
    assert not est.finite


@pytest.mark.parametrize("y_grid", [(), (0.1, 0.5), (0.5, 0.5)])
def test_hardy_norm_rejects_bad_grid(y_grid):
    # an empty grid would leave the estimate, a max over no slices, undefined
    with pytest.raises(ValueError, match="y_grid"):
        hardy_norm(CayleyPower(1.0, 1.0), 2.0, y_grid=y_grid)


def test_vertical_shift_sup_bound():
    # |f(. + i sigma)| on slices is controlled by the interior growth bound;
    # (z + i)^-1 shifted up by sigma is (z + i(1 + sigma))^-1
    f = CayleyPower(1.0, 1.0)
    p, sigma = 2.0, 0.5
    norm = hardy_norm(f, p, y_grid=(0.5, 0.1, 0.0), L=1e4).estimate
    shifted = CayleyPower(1.0, 1.0 + sigma)
    sup = slice_norm(shifted, 0.0, math.inf, 1e3)
    assert sup <= (2.0 / (math.pi * sigma)) ** (1.0 / p) * norm * (1 + 1e-9)


def test_vertical_shift_norm_increases_as_sigma_drops():
    f = CayleyPower(1.0, 1.0)
    norms = [hardy_norm(CayleyPower(f.beta, f.sigma + s), 2.0,
                        y_grid=(0.5, 0.1, 0.0), L=1e3).estimate
             for s in (1.0, 0.5, 0.1)]
    assert norms[0] <= norms[1] <= norms[2]


def test_poisson_constant():
    g = SampledLine.from_function(lambda x: np.ones_like(np.asarray(x, dtype=float)),
                                  32.0, 1 << 10, tail_power=None, label="one")
    u = poisson_extend(g, 1.0)
    assert np.max(np.abs(u.values - 1.0)) < 1e-12


def test_poisson_semigroup_on_kernel():
    # P_1 extended by y gives P_(1+y) exactly
    g = SampledLine.from_function(poisson1, 64.0, 1 << 14, tail_power=2.0)
    u = poisson_extend(g, 1.0)
    xs = u.grid()
    expect = (2.0 / math.pi) / (xs * xs + 4.0)
    assert np.max(np.abs(u.values - expect)) < 1e-6


def test_poisson_semigroup_composition():
    g = SampledLine.from_function(lambda x: np.exp(-np.asarray(x, dtype=float) ** 2 / 8),
                                  48.0, 1 << 14)
    once = poisson_extend(poisson_extend(g, 0.5), 0.7)
    direct = poisson_extend(g, 1.2)
    assert np.max(np.abs(once.values - direct.values)) < 1e-6


def test_poisson_approximate_identity():
    # the kernel has no second moment: convergence is O(y), coefficient
    # about 1.13 for the unit Gaussian, so 1e-4 needs y around 5e-5
    g = SampledLine.from_function(lambda x: np.exp(-np.asarray(x, dtype=float) ** 2),
                                  32.0, 1 << 13)
    u = poisson_extend(g, 5e-5)
    assert np.max(np.abs(u.values - g.values)) < 1e-4

