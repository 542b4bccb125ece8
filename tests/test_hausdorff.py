import hashlib
import math

import numpy as np
import pytest

from hhl.halfplane import (CayleyFamily, CayleyPower, HoloFunction, InverseSquare,
                           hardy_norm, slice_norm)
from scipy.special import erf, exp1

from hhl.hausdorff import (KernelImage, SweepResult,
                           WindowTooSmallError, _extremizer, _grid_numerators,
                           _hat_edges, _hat_weights, _log_grid_kernel,
                           _log_grid_transform, _LogGrid,
                           boundary_identity_check, lp_lower_bound_sweep,
                           norm_lower_bound_sweep, transform_values)
from hhl.kernels import (Kernel, cesaro, eval_kernel, gen_cesaro, hardy_type,
                         moment, moment_exponent, table_kernel, truncate_below,
                         zero_kernel)
from hhl.quadrature import DivergenceError, integrate_halfline
from hhl.realline import (SampledLine, _spline, eval_at, lp_norm,
                          lp_norm_function)

# the default grid's node count, half-width and spacing
_LOG_M, _LOG_HALF, _LOG_DELTA = _LogGrid().m, _LogGrid().half, _LogGrid().delta


def test_apply_real_log_profile():
    # averaging the unit indicator gives -log x on (0, 1); oracle is the
    # antiderivative of the defining integral checked at interior nodes
    f = SampledLine.from_function(
        lambda x: ((np.asarray(x) >= 0) & (np.asarray(x) <= 1)).astype(complex),
        4.0, 1 << 10)
    xs = np.array([0.1, 0.25, 0.5, 0.75, 1.5, 3.0])
    vals = transform_values(cesaro(), f.form, xs, tol=1e-10)
    expect = np.where(xs <= 1, -np.log(np.clip(xs, 1e-12, None)), 0.0)
    assert np.max(np.abs(vals - expect)) < 1e-6


def test_apply_real_constant_tail_weight():
    one = lambda x: np.ones_like(np.asarray(x, dtype=float))
    vals = transform_values(hardy_type(), one, np.array([0.0, 1.0, -3.0]), tol=1e-10)
    assert np.allclose(vals, 1.0, atol=1e-9)  # integral of t^-2 over (1,inf)


def test_eigenfunction_identity():
    # |x|^(-1/2) is an eigenfunction with eigenvalue = the half moment
    fn = lambda x: np.abs(np.asarray(x, dtype=float)) ** -0.5
    for k in (cesaro(), hardy_type()):
        lam = moment_exponent(k, 0.5).value
        for x0 in (0.5, 1.0, 4.0):
            got = transform_values(k, fn, np.array([x0]), tol=1e-10)[0]
            assert got == pytest.approx(lam * x0 ** -0.5, rel=1e-8)


def test_apply_real_positivity_and_grid():
    f = SampledLine.from_function(
        lambda x: np.exp(-np.asarray(x, dtype=float) ** 2), 16.0, 1 << 10)
    out = transform_values(hardy_type(), lambda a: eval_at(f, a), f.grid(), tol=1e-9)
    assert out.shape == (f.N,)
    assert np.min(out.real) >= -1e-12
    assert np.max(np.abs(out.imag)) < 1e-12


def test_apply_real_divergence_names_node():
    def clipped_gauss(x):
        x = np.asarray(x, dtype=float)
        return np.exp(-np.clip(x, -30, 30) ** 2)

    f = SampledLine.from_function(clipped_gauss, 4.0, 1 << 10)
    with pytest.raises(DivergenceError) as exc:
        # log point at the x=0 node
        transform_values(cesaro(), lambda a: eval_at(f, a), f.grid(), tol=1e-9)
    assert "0" in str(exc.value)


def test_minkowski_bound():
    p = 2.0
    f = SampledLine.from_function(
        lambda x: np.exp(-np.asarray(x, dtype=float) ** 2), 32.0, 1 << 12,
        label="gauss")
    for k in (hardy_type(), truncate_below(cesaro(), 0.01)):
        out = SampledLine.from_values(
            transform_values(k, lambda a: eval_at(f, a), f.grid(), tol=1e-9), f.L)
        bound = moment(k, p).value * lp_norm(f, p)
        assert lp_norm(out, p) <= bound * (1.0 + 1e-4)


def test_dilation_covariance():
    lam = 2.0
    k = hardy_type()
    base = lambda x: np.exp(-np.asarray(x, dtype=float) ** 2)
    dil = lambda x: base(lam * np.asarray(x, dtype=float))
    xs = np.array([0.3, 1.0, 2.5])
    lhs = transform_values(k, dil, xs, tol=1e-10)
    rhs = transform_values(k, base, lam * xs, tol=1e-10)
    assert np.max(np.abs(lhs - rhs)) < 1e-8


def test_truncation_continuity():
    # removing kernel mass below delta moves the output by at most the
    # removed moment times the norm
    p, delta = 2.0, 0.25
    k = cesaro()
    kd = truncate_below(k, delta)
    f = SampledLine.from_function(
        lambda x: np.exp(-np.asarray(x, dtype=float) ** 2), 32.0, 1 << 12,
        label="gauss")
    h = f.h
    xs = -f.L + h * (np.arange(f.N) + 0.5)
    whole = transform_values(k, f.form, xs, tol=1e-9)
    trunc = transform_values(kd, f.form, xs, tol=1e-9)
    diff_norm = float(np.sum(np.abs(whole - trunc) ** p) * h) ** (1.0 / p)
    removed = integrate_halfline(
        lambda t: eval_kernel(k, t) * t ** (1.0 / p - 1.0), tol=1e-11,
        support=(0.0, delta)).value
    assert diff_norm <= float(removed) * lp_norm(f, p) * (1.0 + 1e-4)


def test_apply_complex_log_value():
    # averaging (z+i)^-1 at z=i: antiderivative gives -i log 2
    got = transform_values(cesaro(), CayleyPower(1.0, 1.0).eval_batch, 1j, tol=1e-10)
    assert got == pytest.approx(-1j * math.log(2.0), abs=1e-10)


def test_apply_complex_zero_and_linearity():
    k = hardy_type()
    f, g = InverseSquare(), CayleyPower(1.0, 1.0)
    rng = np.random.default_rng(3)
    zs = rng.uniform(-3, 3, 20) + 1j * rng.uniform(0.2, 4.0, 20)
    a, b = 1.7 - 0.3j, -0.8j
    for z in zs[:5]:
        lhs = (a * transform_values(k, f.eval_batch, z, tol=1e-10)
               + b * transform_values(k, g.eval_batch, z, tol=1e-10))
        combo = lambda zz: a * f.eval_batch(zz) + b * g.eval_batch(zz)
        rhs = transform_values(k, combo, np.array([z]), tol=1e-10)[0]
        assert lhs == pytest.approx(rhs, abs=1e-8)


def test_norm_upper_bound():
    # the sharp constant is the p-moment of the kernel; +inf = unbounded
    assert moment(cesaro(), 2.0).value == pytest.approx(2.0, rel=1e-9)
    assert math.isinf(moment(cesaro(), math.inf).value)
    assert moment(hardy_type(), 4.0).value == pytest.approx(4.0 / 3.0, rel=1e-9)


def test_kernel_image_boundary_continuity():
    img = KernelImage(kernel=hardy_type(), base=CayleyPower(1.0, 1.0))
    assert img.boundary_ok
    v = img.eval_batch(np.array([0.5 + 0.0j]))[0]
    assert np.isfinite(v)


def test_kernel_image_tail_power():
    # hardy's phi ~ t^-1 at infinity carries the base's bulk out to |x| ~ t,
    # so the image of (z+i)^-2 is -i/(x+i), which decays as |x|^-1
    img = KernelImage(kernel=hardy_type(), base=CayleyPower(2.0, 1.0))
    assert img.tail_power == 1.0
    assert KernelImage(kernel=hardy_type(), base=CayleyPower(0.5, 1.0)).tail_power == 0.5
    assert KernelImage(kernel=cesaro(), base=CayleyPower(2.0, 1.0)).tail_power == 2.0
    # |-i/(x+i)|^2 = 1/(1+x^2) integrates to pi over the line
    norm = slice_norm(img, 0.0, 2.0, L=16.0)
    assert abs(norm / math.sqrt(math.pi) - 1.0) < 5e-8


def test_sweep_result_invariants():
    with pytest.raises(ValueError):
        SweepResult(p=2.0, epsilons=(0.1, 0.2), quotients=(1.0, 1.0), moment=2.0)
    sw = SweepResult(p=2.0, epsilons=(0.2, 0.1), quotients=(1.5, 1.75), moment=2.0)
    assert sw.best == 1.75


def test_quotient_above_moment_fails_its_row(monkeypatch):
    # a quotient over the sharp bound fails the "quotients under moment"
    # row of its p; the suite's other rows are still reported
    from hhl import cli

    def sweep(k, p, epsilons, L):
        m = moment(k, p).value
        q = m * (1.01 if p == 2.0 else 0.99)
        return SweepResult(p=p, epsilons=tuple(epsilons), quotients=(q,) * len(epsilons),
                           moment=m)

    monkeypatch.setattr(cli, "norm_lower_bound_sweep", sweep)
    rep = cli.run_suite("norm", cli.RunConfig(p_list=(2.0, 4.0)))
    verdict = {r.check: r.passed for r in rep.rows}
    assert verdict.pop("p=2 quotients under moment") is False
    assert len(verdict) == 5 and all(verdict.values())


def test_sweep_quick():
    sw = norm_lower_bound_sweep(cesaro(), 2.0, (0.2, 0.1), L=1e4)
    assert sw.moment == pytest.approx(2.0, rel=1e-9)
    assert sw.best <= 2.0 * (1 + 1e-6)
    assert sw.best >= 1.88
    assert sw.family == "unit-shift"


@pytest.mark.parametrize("kernel, p, eps", [
    (cesaro, 2.0, 0.2),                   # unit shift
    (lambda: gen_cesaro(2.0), 4.0, 0.02),
    (hardy_type, 2.0, 0.2),               # shrinking shift
], ids=["cesaro", "gencesaro2", "hardy"])
def test_sweep_boundary_slice_is_the_norm(kernel, p, eps):
    # the sweep reads only the boundary slice: adding the slices at 0.25
    # sigma and 0.05 sigma leaves the quotient the same, as both interior
    # image slices read below the boundary one; the sweep's numerator comes
    # from the log grid, so the adaptive Hardy norm agrees to its accuracy
    k = kernel()
    sw = norm_lower_bound_sweep(k, p, (eps,), L=1e4)
    f, _ = _extremizer(k, p, eps)
    ys = (0.25 * f.sigma, 0.05 * f.sigma, 0.0)
    num = hardy_norm(KernelImage(kernel=k, base=f, tol=1e-10), p, y_grid=ys,
                     L=1e4, tol=1e-10)
    den = hardy_norm(f, p, y_grid=ys, L=1e4, tol=1e-10)
    assert sw.quotients[0] == pytest.approx(num.estimate / den.estimate, rel=1e-9, abs=0)
    assert max(num.slice_norms[:2]) < num.slice_norms[2]


# one family per sweep: unit shift, a steeper kernel at p = 4, and the
# shrinking shift, whose members differ in sigma too
FAMILY_SWEEPS = {
    "cesaro": (cesaro, 2.0, (0.2, 0.1, 0.05, 0.02)),
    "gencesaro2": (lambda: gen_cesaro(2.0), 4.0, (0.2, 0.1, 0.05, 0.02)),
    "hardy": (hardy_type, 2.0, (0.4, 0.2, 0.1, 0.05)),
}
# two 256-point groups of output points, on and off the axis
FAMILY_POINTS = np.concatenate([-np.geomspace(1e-6, 1e6, 150),
                                np.geomspace(1e-6, 1e6, 150)]) + np.repeat([0.0, 0.01j], 150)


@pytest.mark.parametrize("name", sorted(FAMILY_SWEEPS))
def test_one_member_family_is_the_scalar_path_bitwise(name):
    kernel, p, eps = FAMILY_SWEEPS[name]
    k = kernel()
    f, _ = _extremizer(k, p, eps[0])
    fam = CayleyFamily((f,))
    one = transform_values(k, fam.eval_batch, FAMILY_POINTS, tol=1e-10)
    assert one.shape == FAMILY_POINTS.shape + (1,)
    assert one[:, 0].tobytes() == transform_values(k, f.eval_batch, FAMILY_POINTS,
                                                   tol=1e-10).tobytes()
    image, image_1 = (KernelImage(kernel=k, base=g, tol=1e-10) for g in (f, fam))
    for g, g_1 in ((f, fam), (image, image_1)):
        norm = lp_norm_function(lambda xs: g.eval_batch(xs + 0.0j), p, 1e4,
                                g.feature_scale, g.tail_power)
        norm_1 = lp_norm_function(lambda xs: g_1.eval_batch(xs + 0.0j), p, 1e4,
                                  g_1.feature_scale, g_1.tail_power)
        assert norm_1.tolist() == [norm]
    # the sweep's numerator comes from the log grid, so it agrees with the
    # adaptive quotient to the grid's accuracy
    sw = norm_lower_bound_sweep(k, p, eps[:1], L=1e4)
    q = slice_norm(image, 0.0, p, 1e4) / slice_norm(f, 0.0, p, 1e4)
    assert sw.quotients == pytest.approx((q,), rel=1e-9, abs=0)
    assert type(sw.quotients[0]) is float


@pytest.mark.parametrize("name", sorted(FAMILY_SWEEPS))
def test_family_members_match_their_scalar_calls(name):
    # one schedule for four members refines to the worst of them, so each
    # member lands within rounding of its own call
    kernel, p, eps = FAMILY_SWEEPS[name]
    k = kernel()
    members = tuple(_extremizer(k, p, e)[0] for e in eps)
    fam = CayleyFamily(members)
    together = transform_values(k, fam.eval_batch, FAMILY_POINTS, tol=1e-10)
    norms = slice_norm(fam, 0.0, p, 1e4)
    for j, f in enumerate(members):
        alone = transform_values(k, f.eval_batch, FAMILY_POINTS, tol=1e-10)
        assert np.max(np.abs(together[:, j] - alone) / np.abs(alone)) <= 1e-11
        assert norms[j] == pytest.approx(slice_norm(f, 0.0, p, 1e4), rel=1e-11, abs=0)


def test_sweep_evaluates_each_distinct_extremizer_once(monkeypatch):
    # the p = 1 witness is the same (z + i)^-2 for every epsilon: one
    # family member serves them all
    from hhl import hausdorff
    k = Kernel(kind="table", label="wide", fn=lambda t: np.exp(-np.asarray(t)),
               support=(0.0, math.inf), zero_exponent=0.0)
    seen = []
    real = hausdorff.slice_norm

    def spy(f, *args, **kwargs):
        seen.append(f)
        return real(f, *args, **kwargs)

    monkeypatch.setattr(hausdorff, "slice_norm", spy)
    sw = norm_lower_bound_sweep(k, 1.0, (0.2, 0.1), L=1e3)
    assert sw.family == "fixed-witness" and len(set(sw.quotients)) == 1
    assert [type(f).__name__ for f in seen] == ["KernelImage", "CayleyFamily"]
    assert seen[1].members == (CayleyPower(2.0, 1.0),)


def test_sweep_rejects_unbounded():
    with pytest.raises(ValueError):
        norm_lower_bound_sweep(hardy_type(), 1.0, (0.1,))


def test_sweep_window_guard():
    with pytest.raises(WindowTooSmallError):
        norm_lower_bound_sweep(cesaro(), 2.0, (0.0005,), L=1e4)


def _adaptive_quotients(k, p, eps):
    """The adaptive sweep's quotients: one slice_norm of the family's image
    over one of the family."""
    family = CayleyFamily(tuple(_extremizer(k, p, e)[0] for e in eps))
    image = KernelImage(kernel=k, base=family, tol=1e-10)
    return slice_norm(image, 0.0, p, 1e4) / slice_norm(family, 0.0, p, 1e4)


@pytest.mark.parametrize("p", [2.0, 4.0])
@pytest.mark.parametrize("kernel, gate", [
    (cesaro, 1e-9), (hardy_type, 1e-9), (lambda: gen_cesaro(2.0), 1e-9),
    (lambda: gen_cesaro(0.5), 1e-7)], ids=["cesaro", "hardy", "gencesaro2", "gencesaro0.5"])
def test_grid_sweep_matches_adaptive(monkeypatch, kernel, gate, p):
    # the log-grid numerators against the adaptive ones over the default
    # epsilons: the smooth kernels read up to 3.6e-10 (hardy, p = 4), and
    # gencesaro(0.5)'s (1 - t)^(-1/2) end leaves a delta^2.5 term, 4.2e-8
    # at p = 4 on 2^14 nodes (2.3e-7 on 2^13)
    from hhl import hausdorff
    k, eps = kernel(), (0.2, 0.1, 0.05, 0.02)
    seen = []
    real = hausdorff.slice_norm
    monkeypatch.setattr(hausdorff, "slice_norm",
                        lambda f, *a, **kw: seen.append(f) or real(f, *a, **kw))
    sw = norm_lower_bound_sweep(k, p, eps)
    assert [type(f).__name__ for f in seen] == ["CayleyFamily"]  # the grid path
    ref = _adaptive_quotients(k, p, eps)
    assert np.max(np.abs(np.array(sw.quotients) / ref - 1.0)) <= gate


def test_sweep_takes_the_adaptive_path_when_the_grid_refuses():
    # phi = t^-0.6 on (1, inf) at p = 2: weighted by t^c, c = 0.3, its mass
    # reaches u = 92, past the reach of 74 that the grid's half-width of 114
    # allows, so the numerators are the adaptive ones bit for bit; at p = 8
    # the half-width would pass 350, so t = e^(+-2 half) would leave the
    # double range
    slow = Kernel(kind="slow", label="slow", fn=lambda t: np.asarray(t) ** -0.6,
                  support=(1.0, math.inf), inf_exponent=-0.6)
    eps = (0.2, 0.1)
    assert _grid_numerators(slow, 2.0, [_extremizer(slow, 2.0, e)[0] for e in eps]) is None
    assert _grid_numerators(cesaro(), 8.0, [_extremizer(cesaro(), 8.0, 0.02)[0]]) is None
    sw = norm_lower_bound_sweep(slow, 2.0, eps)
    assert sw.quotients == tuple(_adaptive_quotients(slow, 2.0, eps).tolist())
    assert max(sw.quotients) <= sw.moment * (1 + 1e-6)
    assert sw.best >= 0.7 * sw.moment


def test_weighted_grid_refuses_a_kernel_that_grows_toward_zero():
    # phi = t^-0.4 on (0, 1] weighted by t^0.26 still grows as t -> 0, so
    # the grid would cut its mass off at t = e^-2half; cesaro's decays
    grid = _LogGrid(1 << 12, 100.0, 60.0, 0.26)
    steep = Kernel(kind="steep", label="steep", fn=lambda t: np.asarray(t) ** -0.4,
                   support=(0.0, 1.0), zero_exponent=-0.4)
    with pytest.raises(ValueError, match="weighted kernel mass"):
        _log_grid_kernel(steep, grid)
    assert _log_grid_kernel(cesaro(), grid)[1] == 0.0


@pytest.mark.parametrize("p", [2.0, 4.0])
def test_weighted_grid_reads_the_mellin_eigenfunction(p):
    # cesaro's T f(x) = integral of f(v) dv/v over (x, inf) takes x^-b to
    # x^-b / b; the input is x^-b cut off below x = 1, as the grid needs
    # it to decay there, which leaves x^-(b+3) / (b + 3) at s >= 10.  On the
    # grid weighted by c = b/2 it goes in as f*x^c and comes out as x^c T f,
    # so it may decay this slowly at the top
    b = 1.0 / p + 0.02
    c = 0.5 * b
    grid = _LogGrid(1 << 14, 250.0, 210.0, c)
    s, (t,) = _log_grid_transform([_log_grid_kernel(cesaro(), grid)],
                                  lambda x: x ** c / (x ** b + x ** (b - 3.0)), None, grid)
    inside = (s >= 10.0) & (s <= 40.0)
    exact = np.exp((c - b) * s[inside]) / b
    assert np.max(np.abs(t[inside] / exact - 1.0)) <= 1e-9


def test_log_grid_default_arithmetic_pinned():
    # the default grid, which the commutation check runs on, keeps its
    # arithmetic bit for bit: sha256 of the output bytes
    pos = np.geomspace(3e-3, 200.0, 20)
    xs = np.concatenate([-pos[::-1], pos])
    out = _log_grid_transform([_log_grid_kernel(cesaro())], _gauss, xs)[0]
    assert hashlib.sha256(out.tobytes()).hexdigest() == \
        "30ea4ba7c2b631fea00ed79dea9a82a34e5a1a1baf8d8e104b03a311db6b575b"


def test_large_scale_power_quotient_matches_closed_form():
    # cesaro's large-scale power quotient at p = 2 is 2 / sqrt(1 + 2 eps);
    # closing (0, 1e-6) with the integrand's plateau brings it from 1.4e-7
    # (eps = 0.2) and 1.9e-8 (eps = 0.02) to 2.3e-12
    large, _ = lp_lower_bound_sweep(cesaro(), 2.0, (0.2, 0.02))
    exact = 2.0 / np.sqrt(1.0 + 2.0 * np.array(large.epsilons))
    assert np.max(np.abs(np.array(large.quotients) / exact - 1.0)) <= 1e-10


def test_boundary_identity_rejects_divergent_moment():
    with pytest.raises(ValueError):
        boundary_identity_check(hardy_type(), InverseSquare(), 1.0, (0.5, 0.1))


def _boundary_passes(errs, f_norm) -> bool:
    """The boundary suite's gates: e(y) falls strictly with y, and the last
    e(y) is at most 1e-3 of |f*|_p."""
    return all(a > b for a, b in zip(errs, errs[1:])) and errs[-1] / f_norm <= 1e-3


def test_boundary_identity_quick():
    errs, f_norm = boundary_identity_check(hardy_type(), CayleyPower(1.0, 1.0), 2.0,
                                           (0.5, 0.1, 0.02, 2e-3, 2e-4), L=64.0)
    assert len(errs) == 5
    assert _boundary_passes(errs, f_norm)


# T(f*) of the two reference pairs in closed form: cesaro on (z+i)^-2 and
# hardy on (z+i)^-1, on the principal branch
BOUNDARY_CLOSED = {
    "cesaro": (cesaro, InverseSquare(), 1.0,
               lambda x: 1j / (x + 1j) - np.log(1 + 1j / x)),
    "hardy": (hardy_type, CayleyPower(1.0, 1.0), 2.0,
              lambda x: np.log(1 + x / 1j) / x),
}


@pytest.mark.parametrize("name", sorted(BOUNDARY_CLOSED))
def test_boundary_identity_transforms_each_abscissa_once(name, monkeypatch):
    # the heights' dyadic panels share abscissas, and T(f*) is computed
    # once per abscissa; the values it gets match the closed form
    from hhl import hausdorff
    kernel, f, p, exact = BOUNDARY_CLOSED[name]
    calls = []
    real = hausdorff.transform_values

    def spy(k, f_of, zs, *args, **kwargs):
        out = real(k, f_of, zs, *args, **kwargs)
        if not np.iscomplexobj(zs):
            calls.append((np.array(zs), np.array(out)))
        return out

    monkeypatch.setattr(hausdorff, "transform_values", spy)
    errs, f_norm = boundary_identity_check(kernel(), f, p,
                                           (0.5, 0.1, 0.02, 2e-3, 2e-4, 2e-5), L=64.0)
    assert _boundary_passes(errs, f_norm)
    xs = np.concatenate([c[0] for c in calls])
    vals = np.concatenate([c[1] for c in calls])
    assert np.unique(xs).size == xs.size
    ref = exact(xs)
    assert np.max(np.abs(vals - ref) / np.abs(ref)) <= 1e-9


class _BothSides(HoloFunction):
    """f with ``even_slice_modulus`` off: its norms integrate both sides."""

    def __init__(self, f):
        self.f = f
        self.boundary_ok, self.tail_power = f.boundary_ok, f.tail_power
        self.feature_scale = f.feature_scale

    def eval_batch(self, z):
        return self.f.eval_batch(z)


@pytest.mark.parametrize("name", sorted(BOUNDARY_CLOSED))
def test_boundary_identity_integrates_the_half_line(name, monkeypatch):
    # the difference's modulus is even in x, so only x > 0 is transformed,
    # and each e(y) is that of integrating both half-lines
    from hhl import hausdorff
    kernel, f, p, _ = BOUNDARY_CLOSED[name]
    ys = (0.5, 0.1, 0.02, 2e-3, 2e-4, 2e-5)
    seen = []
    real = hausdorff.transform_values

    def spy(k, f_of, zs, *args, **kwargs):
        seen.append(np.real(zs).min())
        return real(k, f_of, zs, *args, **kwargs)

    monkeypatch.setattr(hausdorff, "transform_values", spy)
    half = boundary_identity_check(kernel(), f, p, ys, L=64.0)
    assert seen and min(seen) > 0
    monkeypatch.setattr(hausdorff, "transform_values", real)
    both = boundary_identity_check(kernel(), _BothSides(f), p, ys, L=64.0)
    assert _boundary_passes(*half) and _boundary_passes(*both)
    np.testing.assert_allclose(half[0], both[0], rtol=1e-10, atol=0)


def _reflection_cases():
    """(f, c) with f(-conj z) = c conj f(z), c a constant per member."""
    bases = [(f"CayleyPower({b:g}, {s:g})", CayleyPower(b, s), np.exp(-1j * np.pi * b))
             for b, s in ((0.27, 1.0), (1.0, 1.0), (1.9, 1.0), (0.27, 0.0))]
    fam = CayleyFamily((CayleyPower(0.52, 1.0), CayleyPower(1.4, 0.5),
                        CayleyPower(2.0, 1.0)))
    bases.append(("CayleyFamily", fam, np.exp(-1j * np.pi * fam.tail_power)))
    bases.append(("InverseSquare", InverseSquare(), 1.0))
    images = [(f"{k.label} of {label}", KernelImage(kernel=k, base=f), c)
              for k in (cesaro(), hardy_type(), gen_cesaro(2.0))
              for label, f, c in bases]
    return [pytest.param(f, c, id=label) for label, f, c in bases + images]


@pytest.mark.parametrize("f, c", _reflection_cases())
def test_reflection_symmetry(f, c):
    # the contract behind even_slice_modulus: f(-conj z) / conj f(z) is one
    # unimodular constant, e^(-i pi beta) per Cayley member, kept by T
    assert f.even_slice_modulus
    rng = np.random.default_rng(3)
    zs = rng.uniform(-5.0, 5.0, 12) + 1j * rng.uniform(0.05, 3.0, 12)
    if f.boundary_ok:
        zs = np.concatenate([zs, rng.uniform(-5.0, 5.0, 4)])
    vals = f.eval_batch(zs)
    ratio = f.eval_batch(-zs.conj()) / vals.conj()
    assert np.max(np.abs(ratio - c)) <= 1e-12


@pytest.mark.parametrize("kernel", [cesaro, hardy_type, lambda: gen_cesaro(2.0)],
                         ids=["cesaro", "hardy", "gencesaro2"])
def test_transform_values_order_and_grouping(kernel, monkeypatch):
    # the Kronrod nodes of graded panels: 15 decades of |x|, so the 256-point
    # groups each get their own schedule
    from hhl import hausdorff
    from hhl.quadrature import _NODES, geometric_panels
    pts = geometric_panels(1e-9, 1e4)
    xs = np.concatenate([0.5 * (a + b) + 0.5 * (b - a) * _NODES
                         for a, b in zip(pts[:-1], pts[1:])])
    assert xs.size == 1071
    k, f = kernel(), CayleyPower(0.52, 1.0).eval_batch
    grouped = transform_values(k, f, xs, tol=1e-10)
    perm = np.random.default_rng(7).permutation(xs.size)
    assert np.array_equal(transform_values(k, f, xs[perm], tol=1e-10), grouped[perm])
    monkeypatch.setattr(hausdorff, "_GROUP", xs.size)
    shared = transform_values(k, f, xs, tol=1e-10)
    assert np.all(np.abs(grouped - shared) <= 1e-12 * np.abs(shared))


def test_kernel_rows_cached_by_profile_not_by_kernel(monkeypatch):
    # Kernel.fn does not take part in Kernel equality, so a cache keyed by
    # the Kernel would hand the tripled profile the first one's rows
    from dataclasses import replace

    from hhl import hausdorff
    k = gen_cesaro(2.0)
    tripled = replace(k, fn=lambda t: 3.0 * k.fn(t))
    assert tripled == k
    f, zs = CayleyPower(1.0, 1.0).eval_batch, np.array([0.5 + 0.25j, -2.0 + 1.0j, 3.0j])
    base = transform_values(k, f, zs)
    assert np.all(np.abs(transform_values(tripled, f, zs) - 3.0 * base)
                  <= 1e-9 * np.abs(base))
    # a repeated call reuses every row, and a cached row is read-only
    calls = []
    monkeypatch.setattr(hausdorff, "eval_kernel",
                        lambda *a: calls.append(a) or eval_kernel(*a))
    assert transform_values(k, f, zs).tobytes() == base.tobytes()
    assert not calls
    weight, inverse = hausdorff._kernel_row(k.fn, k.support, np.array([0.25, 0.5]).tobytes())
    assert not weight.flags.writeable and not inverse.flags.writeable
    with pytest.raises(ValueError):
        weight[0] = 0.0


# ---------------------------------------------------------------------------
# Log-grid (Mellin) convolution, checked against closed forms and against
# the adaptive transform_values


def _gauss(x):
    return np.exp(-np.asarray(x) ** 2)


def _log_grid_one(k, fn, xs):
    """The log-grid transform of one function by one kernel."""
    return _log_grid_transform([_log_grid_kernel(k)], fn, xs)[0]


LOG_GRID_CLOSED = {
    # T_phi of e^(-x^2) for the two classical kernels
    "cesaro": (cesaro, lambda x: exp1(x * x) / 2),
    "hardy": (hardy_type, lambda x: math.sqrt(math.pi) * erf(x) / (2 * x)),
}


@pytest.mark.parametrize("name", sorted(LOG_GRID_CLOSED))
def test_log_grid_closed_forms(name):
    kernel, ref = LOG_GRID_CLOSED[name]
    xs = np.array([-3.0, -0.4, 0.01, 0.3, 1.0, 2.5, 6.0, 100.0])
    got = _log_grid_one(kernel(), _gauss, xs)
    exact = ref(xs)
    assert np.max(np.abs(got - exact)) <= 1e-7 * np.max(np.abs(exact))


LOG_GRID_CORPUS = {
    "gauss": _gauss,
    "xgauss": lambda x: np.asarray(x) * _gauss(x),
    "P1diff": lambda x: (1 / math.pi) / (1 + np.asarray(x) ** 2)
    - (1 / math.pi) / (1 + (np.asarray(x) - 1) ** 2),
}


@pytest.mark.parametrize("fname", sorted(LOG_GRID_CORPUS))
@pytest.mark.parametrize("kernel", [cesaro, hardy_type, lambda: gen_cesaro(2.0)],
                         ids=["cesaro", "hardy", "gencesaro2"])
def test_log_grid_matches_adaptive(kernel, fname):
    fn = LOG_GRID_CORPUS[fname]
    pos = np.geomspace(3e-3, 200.0, 20)
    xs = np.concatenate([-pos[::-1], pos])
    k = kernel()
    got = _log_grid_one(k, fn, xs)
    ref = transform_values(k, fn, xs, tol=1e-10)
    assert np.max(np.abs(got - ref)) <= 5e-7 * np.max(np.abs(ref))


@pytest.mark.parametrize("fname", sorted(LOG_GRID_CORPUS))
@pytest.mark.parametrize("kernel, gate", [
    (cesaro, 5e-9), (hardy_type, 5e-9), (lambda: gen_cesaro(2.0), 5e-9),
    (lambda: gen_cesaro(0.5), 1e-6)], ids=["cesaro", "hardy", "gencesaro2", "gencesaro0.5"])
def test_log_grid_richardson_accuracy(kernel, gate, fname):
    # (4*T_M - T_(M/2))/3 cancels the product rule's delta^2 term: the
    # smooth kernels read at most 1.3e-9 of the maximum; gencesaro(0.5)'s
    # (1 - t)^(-1/2) end needs the graded end cells (1.45e-3 without them)
    # and keeps a delta^2.5 term, 2.1e-7
    fn = LOG_GRID_CORPUS[fname]
    pos = np.geomspace(3e-3, 200.0, 20)
    xs = np.concatenate([-pos[::-1], pos])
    k = kernel()
    got = _log_grid_one(k, fn, xs)
    ref = transform_values(k, fn, xs, tol=1e-12)
    assert np.max(np.abs(got - ref)) <= gate * np.max(np.abs(ref))


def _log_grid_linear(k, fn, xs):
    """The log-grid transform as linear convolutions (lengths 3M and 3M/2)
    and splines fitted on the whole grids, combined as (4*T_M - T_(M/2))/3:
    the oracle of the circular length-2n convolutions and the windowed
    fits."""
    from scipy.signal import fftconvolve
    d, m = _LOG_DELTA, _LOG_M
    ws = -_LOG_HALF + d * np.arange(m)
    out = np.zeros(xs.shape, dtype=complex)
    for sign, side in ((1.0, xs > 0), (-1.0, xs < 0)):
        F = np.asarray(fn(sign * np.exp(ws)), dtype=complex)
        data = F if F.imag.any() else F.real
        ts = []
        for step, weights in zip((1, 2), _hat_weights(k)):
            n = m // step
            conv = fftconvolve(data[::step], weights)[n:2 * n]
            ts.append(_spline(ws[0], d * step, conv)(np.log(np.abs(xs[side]))))
        out[side] = (4.0 * ts[0] - ts[1]) / 3.0
    return out


@pytest.mark.parametrize("fn", [_gauss, lambda x: _gauss(x) * np.exp(1j * np.asarray(x))],
                         ids=["real", "complex"])
@pytest.mark.parametrize("kernel", [cesaro, hardy_type], ids=["cesaro", "hardy"])
def test_log_grid_matches_linear_convolution(kernel, fn):
    # points at both ends of the allowed |x| range, so that the spline's
    # fit window reaches the grid's first node (cesaro) and its last
    k = kernel()
    d = _LOG_DELTA
    reach = _log_grid_kernel(k)[1]
    pos = np.exp(np.linspace(reach - _LOG_HALF + 2 * d, _LOG_HALF - 2 * d, 41))
    xs = np.concatenate([-pos[::-1], pos])
    got = _log_grid_one(k, fn, xs)
    ref = _log_grid_linear(k, fn, xs)
    assert np.max(np.abs(got - ref)) <= 1e-13 * np.max(np.abs(ref))


_HAT_KERNELS = [
    cesaro, hardy_type, lambda: gen_cesaro(2.0), lambda: gen_cesaro(0.5),
    lambda: table_kernel([(0.05, 0.3), (0.4, 1.0), (3.0, 0.2), (20.0, 0.01)]),
    lambda: truncate_below(cesaro(), 0.1)]
_HAT_IDS = ["cesaro", "hardy", "gencesaro2", "gencesaro0.5", "table", "truncated"]


def _flat_kernel(lo, hi):
    return Kernel(kind="flat", label="flat", fn=lambda t: np.ones_like(np.asarray(t, dtype=float)),
                  support=(lo, hi))


@pytest.mark.parametrize("kernel", _HAT_KERNELS + [
    # no node inside the support: both ends' graded points share one cell
    lambda: _flat_kernel(1.0, 1.005),
    # far from u = 0 the end's graded points round onto common values
    lambda: _flat_kernel(math.exp(60.0), math.exp(70.0))], ids=_HAT_IDS + ["narrow", "far"])
def test_hat_edges_match_unique(kernel):
    # np.unique of the support ends, the grid nodes between them and the
    # graded points end -+ delta*2^-j (j = 1..40) of a finite end that fall
    # inside its end cell is the oracle of the directly built edges
    k = kernel()
    d = _LOG_DELTA
    lo, hi = k.support
    a = max(-2.0 * _LOG_HALF, math.log(lo)) if lo > 0 else -2.0 * _LOG_HALF
    b = min(2.0 * _LOG_HALF, math.log(hi))
    nodes = d * np.arange(math.ceil(a / d), math.floor(b / d) + 1)
    inner = nodes[(nodes > a) & (nodes < b)]
    first, last = (inner.min(), inner.max()) if inner.size else (b, a)
    steps = d * 0.5 ** np.arange(1, 41)
    graded = np.concatenate([a + steps if lo > 0 and a == math.log(lo) else [],
                             b - steps if b == math.log(hi) else []])
    graded = graded[((graded > a) & (graded < first)) | ((graded > last) & (graded < b))]
    expected = np.unique(np.concatenate(([a, b], nodes, graded)))
    got = _hat_edges(k)
    assert got.dtype == expected.dtype and np.array_equal(got, expected)


def test_hat_edges_grade_finite_ends_only():
    # cesaro's finite end u = 0 is graded down to delta*2^-40; the clipped
    # end -2*_LOG_HALF is not
    d = _LOG_DELTA
    edges = _hat_edges(cesaro())
    assert edges[-1] == 0.0 and edges[-2] == -d * 2.0 ** -40
    assert np.array_equal(edges[:3], [-2.0 * _LOG_HALF, -2.0 * _LOG_HALF + d,
                                      -2.0 * _LOG_HALF + 2 * d])
    assert edges.size == 2 * _LOG_HALF / d + 1 + 40


def _hat_weights_out_of_place(k):
    """_hat_weights with every cell-by-node product in a new array, in the
    operand order of the formula: the oracle of the in-place products."""
    d, m = _LOG_DELTA, _LOG_M
    edges = _hat_edges(k)
    left, width = edges[:-1], np.diff(edges)
    gx, gw = np.polynomial.legendre.leggauss(8)
    u = left[:, None] + 0.5 * width[:, None] * (gx + 1.0)
    mass = 0.5 * width[:, None] * gw * eval_kernel(k, np.exp(u))
    out = []
    for h, n in ((d, m), (2.0 * d, m // 2)):
        cell = np.floor(left / h)
        frac = u / h - cell[:, None]
        idx = cell.astype(int) + n
        out.append(np.bincount(idx, np.sum(mass * (1.0 - frac), axis=1), minlength=2 * n + 1)
                   + np.bincount(idx + 1, np.sum(mass * frac, axis=1), minlength=2 * n + 1))
    return tuple(out)


@pytest.mark.parametrize("kernel", _HAT_KERNELS, ids=_HAT_IDS)
def test_hat_weights_in_place_match_out_of_place_bitwise(kernel):
    k = kernel()
    got = _hat_weights(k)
    for w, ref in zip(got, _hat_weights_out_of_place(k), strict=True):
        assert np.array_equal(w, ref)
        assert np.any(w)


def test_log_grid_hat_weights_closed_forms():
    # both grids: M nodes at spacing delta, and the half grid's M/2 at 2*delta
    grids = ((_LOG_DELTA, _LOG_M), (2.0 * _LOG_DELTA, _LOG_M // 2))
    for (h, m), ces, har in zip(grids, _hat_weights(cesaro()), _hat_weights(hardy_type())):
        idx = np.arange(1, m - 1)  # away from the grid ends
        assert np.max(np.abs(ces[m - idx] - h)) <= 1e-12
        assert abs(ces[m] - h / 2) <= 1e-12
        assert np.all(ces[m + 1:] == 0.0)
        exact = np.exp(-idx * h) * 2.0 * (math.cosh(h) - 1.0) / h
        assert np.max(np.abs(har[m + idx] - exact)) <= 1e-12
        assert np.all(har[:m] == 0.0)


def test_log_grid_guards():
    xs = np.array([-1.0, 0.5, 2.0])
    with pytest.raises(ValueError, match="decayed"):
        slow_decay = lambda x: 1.0 / (1.0 + np.abs(x)) ** 0.25
        _log_grid_one(cesaro(), slow_decay, xs)
    slow = Kernel(kind="slow", label="slow", fn=lambda t: np.asarray(t) ** -0.5,
                  support=(1.0, math.inf), inf_exponent=-0.5)
    with pytest.raises(ValueError, match="kernel mass"):
        _log_grid_one(slow, _gauss, xs)
    # the output floor follows the kernel's reach: 0 for cesaro, about
    # 27.6 for hardy, whose floor is then |x| = e^(27.6 - 40) = 4.2e-6
    for k, bad in ((cesaro(), 0.0), (cesaro(), 1e18), (hardy_type(), 1e-6)):
        with pytest.raises(ValueError, match="off the log grid"):
            _log_grid_one(k, _gauss, np.array([1.0, bad]))
    tiny = np.array([-1e-10, 1e-10])
    assert np.allclose(_log_grid_one(cesaro(), _gauss, tiny),
                       exp1(1e-20) / 2, rtol=1e-7, atol=0)


def test_log_grid_zero_kernel_exact():
    xs = np.array([-5.0, -0.01, 0.01, 5.0])
    assert np.all(_log_grid_one(zero_kernel(), _gauss, xs) == 0.0)
