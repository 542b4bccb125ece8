import heapq
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.special import expi

from hhl.quadrature import (BudgetError, DivergenceError, QuadResult, _BlockScan,
                            geometric_panels, integrate, integrate_batched,
                            integrate_halfline, integrate_pv)


def test_constant():
    assert integrate(lambda x: np.ones_like(x), 0, 1).value == pytest.approx(1.0, abs=1e-12)


def test_odd_symmetry():
    assert integrate(lambda x: x, -1, 1).value == pytest.approx(0.0, abs=1e-12)


def test_endpoint_singularity():
    r = integrate(lambda x: 1.0 / np.sqrt(x), 0, 1, tol=1e-10)
    assert r.value == pytest.approx(2.0, abs=5e-8)


@pytest.mark.parametrize("power, exact", [(0.75, 4.0), (0.9, 10.0)])
def test_strong_endpoint_singularity(power, exact):
    # panels next to 0 must refine far below eps-wide before the left
    # panel's share 1/(1 - power) * width^(1 - power) falls under tol
    r = integrate(lambda x: x ** -power, 0, 1, tol=1e-10)
    assert abs(r.value - exact) <= 1e-9


def test_budget_error_carries_partial():
    with pytest.raises(BudgetError) as exc:
        integrate(lambda x: 1.0 / np.sqrt(np.abs(np.sin(1000 * x)) + 1e-14),
                  0, 3, tol=1e-14, budget=500)
    assert exc.value.partial.evaluations <= 500


@pytest.mark.parametrize("cplx", [False, True])
@pytest.mark.parametrize("shape", [(), (1,), (1, 1), (2,), (7,), (3, 4), (5, 1)])
def test_block_scan_running_sum(shape, cplx):
    # the stopping tests read the sequential running sum; total() equals
    # the stack-and-sum of every block, bit for bit and with its signed
    # zeros, also where that sum is pairwise (blocks of one value)
    rng = np.random.default_rng(11)
    scan = _BlockScan(10 ** 6)
    assert scan.total() == 0.0
    blocks, seq = [], 0.0
    for i in range(20):
        v = rng.standard_normal(shape) * 10.0 ** rng.integers(-9, 9, size=shape)
        if cplx:
            v = v + 1j * rng.standard_normal(shape)
        if i < 2:
            v = np.full(shape, -0.0, dtype=complex if cplx else float)
        blocks.append(v)
        seq = seq + v
        assert scan.add(QuadResult(v, 1e-3 * i, 21)) == float(np.max(np.abs(seq)))
        ref = np.sum(np.stack([np.asarray(b) for b in blocks]), axis=0)
        got = np.asarray(scan.total())
        assert (got.shape, got.dtype, got.tobytes()) == (ref.shape, ref.dtype, ref.tobytes())
    assert scan.evals == 20 * 21 and scan.err == pytest.approx(0.19)


def test_halfline_exponential():
    assert integrate_halfline(lambda t: np.exp(-t)).value == pytest.approx(1.0, abs=1e-9)


def test_halfline_gamma_half():
    r = integrate_halfline(lambda t: np.exp(-t) / np.sqrt(t))
    assert r.value == pytest.approx(math.sqrt(math.pi), abs=1e-8)


def test_halfline_divergence_detected():
    r = integrate_halfline(lambda t: np.where(t < 1, 1.0 / t, 0.0))
    assert r.diverges and math.isinf(r.value)


def test_halfline_shifted_support():
    r = integrate_halfline(lambda t: 1.0 / t ** 2, support=(10.0, math.inf))
    assert r.value == pytest.approx(0.1, rel=1e-9)


def test_halfline_cap_truncation_in_error():
    # the u-scan stops at the exponent cap with t^-1.02 still live: the
    # missing mass 50 e^(-0.02 u_cap) must show up in the error estimate
    r = integrate_halfline(lambda t: t ** -1.02, support=(1.0, math.inf))
    assert not r.diverges
    assert r.error >= 50.0 - r.value > 0.0


def test_halfline_finite_end_is_exact():
    # a finite support end closes the scan: nothing is truncated
    r = integrate_halfline(lambda t: t ** -1.02, support=(1.0, math.exp(100.0)))
    assert r.value == pytest.approx(50.0 * (1.0 - math.exp(-2.0)), abs=1e-12)
    assert r.error < 1e-12


def test_pv_odd():
    r = integrate_pv(lambda x: 1.0 / x, 0.0, -1, 1)
    assert abs(r.value) < 1e-10


def test_pv_off_center():
    # oracle: antiderivative log|x - 1| gives log(1) - log(3)
    r = integrate_pv(lambda x: 1.0 / (x - 1.0), 1.0, -2, 2)
    assert r.value == pytest.approx(-math.log(3.0), abs=1e-9)


def test_pv_even_cos():
    r = integrate_pv(lambda x: np.cos(x) / x, 0.0, -1, 1)
    assert abs(r.value) < 1e-10


def test_pv_non_cancelling_raises():
    with pytest.raises(DivergenceError):
        integrate_pv(lambda x: 1.0 / np.abs(x - 0.5), 0.5, 0, 1)


def test_pv_pole_on_power_of_two():
    # x0 = 1 sits on a binade edge, where x0 + s and x0 - s round apart;
    # oracle: PV of e^x/(x-1) over [-1, 3] is e*(Ei(2) - Ei(-2))
    r = integrate_pv(lambda x: np.exp(x) / (x - 1.0), 1.0, -1, 3, tol=1e-11)
    assert r.value == pytest.approx(math.e * (expi(2.0) - expi(-2.0)), abs=1e-9)


def test_vector_integrand():
    # one schedule, many components
    coefs = np.array([1.0, 2.0, 3.0])

    def g(x):
        return np.exp(-np.multiply.outer(x, coefs) ** 2 / 2.0)

    r = integrate(g, -30, 30, tol=1e-10)
    expect = math.sqrt(2 * math.pi) / coefs
    assert np.allclose(r.value, expect, atol=1e-9)


@settings(max_examples=20, deadline=None)
@given(st.floats(-2, 2), st.floats(-2, 2))
def test_linearity(a, b):
    g = lambda x: np.exp(-x * x)
    h = lambda x: np.cos(x)
    lhs = integrate(lambda x: a * g(x) + b * h(x), 0, 1, tol=1e-10).value
    rhs = a * integrate(g, 0, 1, tol=1e-10).value + b * integrate(h, 0, 1, tol=1e-10).value
    assert lhs == pytest.approx(rhs, abs=1e-9)


@settings(max_examples=20, deadline=None)
@given(st.floats(0.1, 0.9))
def test_interval_additivity(b):
    g = lambda x: np.sin(3 * x) + x * x
    whole = integrate(g, 0, 1, tol=1e-11).value
    split = integrate(g, 0, b, tol=1e-11).value + integrate(g, b, 1, tol=1e-11).value
    assert whole == pytest.approx(split, abs=1e-9)


@settings(max_examples=10, deadline=None)
@given(st.floats(0.2, 3.0))
def test_pv_antisymmetry(width):
    # even numerator over a simple pole on a symmetric interval cancels
    r = integrate_pv(lambda x: np.exp(-np.abs(x)) / x, 0.0, -width, width)
    assert abs(r.value) < 1e-9


def test_batched_matches_plain():
    g = lambda x: np.exp(-x) * np.sin(x)
    panels = geometric_panels(0.5, 10.0)
    rb = integrate_batched(g, panels, tol=1e-11)
    rp = integrate(g, 0, 10, tol=1e-11)
    assert rb.value == pytest.approx(rp.value, abs=1e-9)


@pytest.mark.parametrize("shape", [(3, 2), (1,)])
def test_batched_keeps_value_shape(shape):
    g = lambda x: np.multiply.outer(np.exp(-x), np.ones(shape))
    converged = integrate_batched(g, [0.0, 1.0, 2.0], tol=1e-9)
    with pytest.raises(BudgetError) as exc:
        integrate_batched(g, [0.0, 1.0, 2.0], tol=1e-300, budget=21 * 6)
    partial = exc.value.partial
    assert np.shape(converged.value) == np.shape(partial.value) == shape
    assert partial.evaluations == 21 * 6
    assert np.allclose(partial.value, 1.0 - math.exp(-2.0), atol=1e-12)


def test_batched_rejects_nonpositive_tol():
    g, calls = _counting(lambda x: np.exp(-x))
    for tol in (0.0, -1e-9):
        with pytest.raises(ValueError, match="tol must be positive"):
            integrate_batched(g, [0.0, 1.0], tol=tol)
    assert not calls


def test_batched_budget_below_first_panels():
    g, calls = _counting(lambda x: np.exp(-x))
    with pytest.raises(BudgetError) as exc:
        integrate_batched(g, [0.0, 1.0, 2.0, 3.0], budget=21 * 3 - 1)
    assert exc.value.partial.evaluations == 0
    assert not calls
    # the first panels alone fit: the loop runs on them
    assert integrate_batched(g, [0.0, 1.0, 2.0, 3.0], tol=1e-3,
                             budget=21 * 3).evaluations == 21 * 3


# (integrand, breakpoints, keyword arguments, integrand calls of the
# reference loop, at most this many for integrate_batched)
CHAIN_CASES = {
    "log squared": (lambda x: np.log(x) ** 2 + np.sqrt(x),
                    geometric_panels(1e-3, 1e4), {}, 69, 6),
    "rsqrt": (lambda x: x ** -0.5, [0.0, 1.0], {}, 117, 4),
    "x^-0.9": (lambda x: x ** -0.9, [0.0, 1.0], {}, 665, 7),
    "vector valued": (lambda x: np.stack([np.log(x), np.sqrt(x), np.exp(-x)], axis=1),
                      [0.0, 0.5, 1.0, 2.0], {}, 53, 4),
    "log4": (lambda x: np.log(x) ** 4, [0.0, 1.0], {}, 89, 4),
    "right end log": (lambda x: np.log(1.0 - x), [0.0, 0.5, 1.0], {}, 52, 4),
    "smooth gaussian": (lambda x: np.exp(-x * x), [-5.0, 0.0, 5.0], {}, 6, 2),
    "budget": (lambda x: np.log(x) ** 2, [0.0, 1.0], {"budget": 21 * 30}, 29, 4),
}


def _counting(g):
    calls = []

    def wrapped(x):
        calls.append(x.size)
        return g(x)
    return wrapped, calls


def _result_or_partial(fn, *args, **kwargs):
    try:
        return "value", fn(*args, **kwargs)
    except BudgetError as exc:
        return "budget", exc.partial


def _assert_bitwise(new, ref):
    assert np.asarray(new.value).dtype == np.asarray(ref.value).dtype
    assert np.asarray(new.value).tobytes() == np.asarray(ref.value).tobytes()
    assert new.error == ref.error
    assert new.evaluations == ref.evaluations


@pytest.mark.parametrize("name", sorted(CHAIN_CASES))
def test_batched_chain_replay_matches_plain_loop(name):
    g, panels, kwargs, ref_count, new_count = CHAIN_CASES[name]
    g_ref, ref_calls = _counting(g)
    g_new, new_calls = _counting(g)
    spans = list(zip(panels, panels[1:]))
    kind_ref, ref = _result_or_partial(_bisect_by_pairs, g_ref, spans,
                                       1e-10, **kwargs)
    kind_new, new = _result_or_partial(integrate_batched, g_new, panels,
                                       tol=1e-10, **kwargs)
    assert kind_new == kind_ref
    _assert_bitwise(new, ref)
    assert len(ref_calls) == ref_count
    assert len(new_calls) <= new_count
    # halves evaluated ahead for a loop that stopped are not counted
    assert sum(new_calls) >= new.evaluations


def _bisect_by_pairs(g, spans, tol, budget=None, exits=None):
    """Reference for ``integrate`` and ``integrate_batched``: their
    bisection loop over the consecutive intervals ``spans``, with one
    integrand call per panel, two per split.  ``exits`` collects how the
    loop ended: "tol", "stall" or "budget", and "frozen" when it froze a
    panel too narrow to split."""
    from hhl.quadrature import (_EVALS_PER_PANEL, _collect, _panel,
                                _too_narrow, eval_budget)
    exits = set() if exits is None else exits
    budget = eval_budget() if budget is None else budget
    firsts = [_panel(g, a, b) for a, b in spans]
    heap = [(-err, seq, a, b, val)
            for seq, ((a, b), (val, err)) in enumerate(zip(spans, firsts))]
    heapq.heapify(heap)
    evals = _EVALS_PER_PANEL * len(spans)
    seq = len(spans)
    done = []
    total_err = sum(err for _, err in firsts)
    frozen_err, best_err, stale = 0.0, total_err, 0
    while total_err > tol and heap:
        if evals + 2 * _EVALS_PER_PANEL > budget:
            exits.add("budget")
            value, rounding = _collect([(e[2], e[3], e[4]) for e in heap] + done)
            raise BudgetError("budget", QuadResult(
                value, total_err + frozen_err + rounding, evals))
        neg_e, _, ia, ib, ival = heapq.heappop(heap)
        if _too_narrow(ia, ib):
            exits.add("frozen")
            done.append((ia, ib, ival))
            total_err += neg_e
            frozen_err -= neg_e
            continue
        mid = 0.5 * (ia + ib)
        v1, e1 = _panel(g, ia, mid)
        v2, e2 = _panel(g, mid, ib)
        evals += 2 * _EVALS_PER_PANEL
        total_err += neg_e + e1 + e2
        seq += 1
        heapq.heappush(heap, (-e1, seq, ia, mid, v1))
        seq += 1
        heapq.heappush(heap, (-e2, seq, mid, ib, v2))
        if total_err < best_err * (1.0 - 1e-3):
            best_err, stale = total_err, 0
        else:
            stale += 1
            if stale >= 24:
                exits.add("stall")
                break
    else:
        exits.add("tol")
    value, rounding = _collect([(e[2], e[3], e[4]) for e in heap] + done)
    return QuadResult(value, max(total_err, 0.0) + frozen_err + rounding, evals)


def _ladder():
    # a 200-knot C1 piecewise cubic on a log ladder with a decaying
    # modulus: the shape of the tail closures of a tail-aware transform
    from hhl.realline import _pchip
    u = np.linspace(0.0, 30.0, 200)
    ev = _pchip(u, np.exp(-0.7 * u) * (1.5 + np.sin(2.3 * u)) * (1 + 0.1 * u))
    return lambda us: np.abs(ev(us))


# (integrand, a, b, keyword arguments, the reference loop's exits)
BISECT_CASES = {
    "smooth": (lambda x: np.exp(-x) * np.sin(3 * x), 0.0, 10.0,
               {"tol": 1e-13}, {"tol"}),
    "pchip ladder": (_ladder(), 0.0, 30.0, {"tol": 1e-12}, {"tol"}),
    "rsqrt at 0": (lambda x: x ** -0.5, 0.0, 1.0, {"tol": 1e-10}, {"tol"}),
    "complex n x 3": (lambda x: np.stack([np.exp(5j * x), np.sqrt(x) + 0j,
                                          np.log1p(x) * 1j], axis=1),
                      0.0, 2.0, {"tol": 1e-12}, {"tol"}),
    "noise floor": (lambda x: np.exp(x) + 1e-9 * np.sin(1e13 * x), 0.0, 1.0,
                    {"tol": 1e-15}, {"stall"}),
    "frozen jump": (lambda x: np.where(x < 1.0 / 3.0, 0.0, 1.0), 0.0, 1.0,
                    {"tol": 1e-17}, {"frozen", "tol"}),
    "budget": (lambda x: np.log(x) ** 2 * np.sin(50 * x), 0.0, 1.0,
               {"tol": 1e-14, "budget": 21 * 41}, {"budget"}),
}


@pytest.mark.parametrize("name", sorted(BISECT_CASES))
def test_integrate_replays_pair_loop_bitwise(name):
    g, a, b, kwargs, ref_exits = BISECT_CASES[name]
    g_ref, ref_calls = _counting(g)
    g_new, new_calls = _counting(g)
    exits = set()
    kind_ref, ref = _result_or_partial(_bisect_by_pairs, g_ref, [(a, b)],
                                       exits=exits, **kwargs)
    kind_new, new = _result_or_partial(integrate, g_new, a, b, **kwargs)
    assert exits == ref_exits
    assert kind_new == kind_ref
    _assert_bitwise(new, ref)
    assert sum(new_calls) >= new.evaluations
    if "tol" in exits:
        # every split evaluated ahead was one the loop made
        assert sum(new_calls) == new.evaluations
        assert len(new_calls) < len(ref_calls)
    if name == "pchip ladder":
        assert len(new_calls) <= len(ref_calls) / 5


def test_integrate_batches_within_element_budget():
    # a call holds at most _BATCH_ELEMENTS abscissa-by-component elements;
    # an integrand too wide for a split's two panels gets one per call
    from hhl.quadrature import _BATCH_ELEMENTS
    for width in (1, 40, 97, 98, 4000):
        g, calls = _counting(lambda x, w=width: np.multiply.outer(
            x ** -0.5, np.ones(w)))
        integrate(g, 0.0, 1.0, tol=1e-10)
        if 42 * width <= _BATCH_ELEMENTS:
            assert 42 <= max(calls) <= _BATCH_ELEMENTS // width
        else:
            assert set(calls) == {21}


def test_budget_env_override(monkeypatch):
    from hhl.quadrature import eval_budget
    monkeypatch.setenv("HHL_BUDGET", "1234")
    assert eval_budget() == 1234
    monkeypatch.setenv("HHL_BUDGET", "150")
    with pytest.raises(BudgetError):
        integrate(lambda x: 1.0 / np.sqrt(np.abs(x) + 1e-15), 0, 1, tol=1e-14)
    monkeypatch.delenv("HHL_BUDGET")
    assert eval_budget() == 1_000_000


def test_kronrod_rule_degrees():
    # K21 is exact through degree 3*10 + 1 = 31, its G10 subset through 19
    from hhl.quadrature import _NODES, _W_GAUSS, _W_KRONROD
    assert np.array_equal(_NODES, -_NODES[::-1])
    assert np.array_equal(_W_KRONROD, _W_KRONROD[::-1])
    assert _W_KRONROD.sum() == 2.0
    for k in range(32):
        exact = (1.0 - (-1.0) ** (k + 1)) / (k + 1)
        assert abs(_W_KRONROD @ _NODES ** k - exact) <= 1e-14
        if k <= 19:
            assert abs(_W_GAUSS @ _NODES[1::2] ** k - exact) <= 1e-14


def test_kronrod_gauss_subset_is_leggauss():
    from hhl.quadrature import _NODES
    nodes, _ = np.polynomial.legendre.leggauss(10)
    assert np.max(np.abs(_NODES[1::2] - nodes)) <= 1e-15


def test_panel_costs_21_abscissas():
    r = integrate(lambda x: 3.0 * x ** 5 - x ** 2 + 1.0, 0, 1)
    assert r.evaluations == 21
    assert r.value == pytest.approx(7.0 / 6.0, abs=1e-14)


def _embedded_tensordot(vals, half):
    """The tensordot form of the panel rule: the oracle of ``_embedded``."""
    from hhl.quadrature import _W_GAUSS, _W_KRONROD
    gauss = np.tensordot(_W_GAUSS, vals[1::2], axes=(0, 0)) * half
    kronrod = np.tensordot(_W_KRONROD, vals, axes=(0, 0)) * half
    a = np.abs(kronrod - gauss)
    return kronrod, float(a) if np.ndim(a) == 0 else float(a.max())


def _panel_values():
    rng = np.random.default_rng(7)
    wide = rng.standard_normal((21, 13, 4))
    cplx = rng.standard_normal((21, 130)) + 1j * rng.standard_normal((21, 130))
    return {
        "1d": rng.standard_normal(21),
        "real": rng.standard_normal((21, 130)),
        "complex": cplx,
        "3d": rng.standard_normal((21, 5, 3)),
        "strided_columns": wide[:, ::3, 1],
        "strided_rows": rng.standard_normal((42, 6))[::2],
        "transposed": np.ascontiguousarray(cplx[:, :21].T).T,
    }


@pytest.mark.parametrize("name", sorted(_panel_values()))
def test_embedded_matches_tensordot_bitwise(name):
    from hhl.quadrature import _embedded
    vals = _panel_values()[name]
    for half in (0.5, 3.0e-7, 1.25e5):
        got_v, got_e = _embedded(vals, half)
        ref_v, ref_e = _embedded_tensordot(vals, half)
        assert np.shape(got_v) == np.shape(ref_v) == vals.shape[1:]
        assert np.asarray(got_v).dtype == np.asarray(ref_v).dtype
        assert np.asarray(got_v).tobytes() == np.asarray(ref_v).tobytes()
        assert got_e == ref_e


def _row_weight_cases():
    rng = np.random.default_rng(11)
    vals = _panel_values()
    return {
        "real": (rng.uniform(0.1, 3.0, 21), vals["real"]),
        "complex": (rng.uniform(0.1, 3.0, 21), vals["complex"]),
        "3d": (rng.standard_normal(21), vals["3d"]),
        "1d": (rng.uniform(0.1, 3.0, 21), vals["1d"]),
        "complex_weight": (rng.standard_normal(21) + 1j * rng.standard_normal(21),
                           vals["real"]),
    }


def _multiplied(pair):
    """The plain integrand w[:, None] * P of the row-weighted ``pair``."""
    def product(xs):
        w, vals = pair(xs)
        return w.reshape(-1, *(1,) * (np.ndim(vals) - 1)) * vals
    return product


def _close_to_product(got, ref, w, P, half):
    # (value, error) of a folded panel against those of its product: the
    # rows round differently, by about an ulp per term, so the bound is
    # the Kronrod sum of the terms' magnitudes
    from hhl.quadrature import _W_KRONROD
    scale = np.tensordot(_W_KRONROD * np.abs(w), np.abs(P), axes=(0, 0)) * half
    assert np.shape(got[0]) == np.shape(ref[0])
    assert np.asarray(got[0]).dtype == np.asarray(ref[0]).dtype
    assert np.all(np.abs(np.asarray(got[0]) - np.asarray(ref[0])) <= 1e-15 * scale)
    assert abs(got[1] - ref[1]) <= 2e-15 * np.max(scale)


@pytest.mark.parametrize("name", sorted(_row_weight_cases()))
def test_embedded_row_weights_match_product(name):
    from hhl.quadrature import _embedded
    w, P = _row_weight_cases()[name]
    product = _multiplied(lambda xs: (w, P))(None)
    for half in (0.5, 3.0e-7, 1.25e5):
        _close_to_product(_embedded((w, P), half), _embedded(product, half), w, P, half)


@pytest.mark.parametrize("cplx", [False, True], ids=["real", "complex"])
def test_panel_batch_carries_row_weights(cplx):
    from hhl.quadrature import _NODES, _panel_batch
    cols = np.linspace(-2.0, 3.0, 17)

    def pair(xs):
        vals = np.cos(np.outer(xs, cols))
        return np.exp(-xs), vals + 1j * np.sin(np.outer(xs, cols)) if cplx else vals

    pending = [(0.0, 0.5), (0.5, 2.0), (2.0, 2.25)]
    seen = []

    def counted(g):
        def wrapped(xs):
            seen.append(xs.size)
            return g(xs)
        return wrapped

    ref = _panel_batch(counted(_multiplied(pair)), pending)
    got = _panel_batch(counted(pair), pending)
    assert seen == [len(pending) * _NODES.size] * 2
    for got_panel, ref_panel, (a, b) in zip(got, ref, pending):
        w, vals = pair(0.5 * (a + b) + 0.5 * (b - a) * _NODES)
        _close_to_product(got_panel, ref_panel, w, vals, 0.5 * (b - a))


def test_row_weighted_integrand_costs_what_its_product_costs():
    cols = np.array([0.5, 1.0, 2.0, 7.5])

    def pair(xs):
        return np.exp(-xs) / np.sqrt(xs + 1e-3), np.cos(np.outer(xs, cols))

    powers = np.array([0.5, 1.0, 2.0, 3.5])

    def halfline_pair(ts):
        return np.exp(-ts), ts[:, None] ** (powers - 1.0)

    runs = [
        (lambda g: integrate(g, 0.0, 3.0, tol=1e-11), pair),
        (lambda g: integrate_batched(g, geometric_panels(1e-3, 3.0), tol=1e-11), pair),
        (lambda g: integrate_halfline(g, tol=1e-10), halfline_pair),
    ]
    for run, g_pair in runs:
        got, ref = run(g_pair), run(_multiplied(g_pair))
        assert got.evaluations == ref.evaluations
        assert np.max(np.abs(got.value - ref.value)) <= 1e-13 * np.max(np.abs(ref.value))
    exact = np.array([math.gamma(s) for s in powers])
    res = integrate_halfline(halfline_pair, tol=1e-10)
    assert np.max(np.abs(res.value - exact)) <= 1e-9


def test_integrate_pv_rejects_row_weighted_pairs():
    with pytest.raises(TypeError):
        integrate_pv(lambda x: (np.ones_like(x), 1.0 / x), 0.0, -1.0, 1.0)


def test_halfline_wide_panel_peak_memory():
    # the Jacobian joins the row weights, so a wide integrand's panel is
    # never copied into a product: the peak stays near one panel
    import tracemalloc
    xs = np.linspace(-1.0, 1.0, 1 << 16)
    panel_bytes = 21 * xs.size * 8

    def integrand(ts):
        panel = np.subtract(xs[None, :], ts[:, None] + 2.0)
        return np.exp(-ts), np.reciprocal(panel, out=panel)

    tracemalloc.start()
    try:
        integrate_halfline(integrand, tol=1e-6, support=(1.0, 2.0))
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 1.75 * panel_bytes
