"""Acceptance gate: the eight top-level criteria.

Each test prints one PASS/FAIL line; tolerances are pinned here and match
the gates the harness (``hhl.cli``) applies to the library's measurements.  Runtime targets: criterion 1
within two minutes, 3/4/6 within a minute each, the whole module well
under ten.
"""

import math
import time

import numpy as np

from hhl.cli import RATIO_CORRIDOR, RunConfig, _pairwise_ratios, run_suites
from hhl.halfplane import CayleyPower, InverseSquare
from hhl.hausdorff import (boundary_identity_check, lp_lower_bound_sweep,
                           norm_lower_bound_sweep)
from hhl.hardy_bmo import bmo_bound_check, h1_lowerbound_check, h1_report
from hhl.hilbert import commutation_check, hilbert
from hhl.kernels import (adjoint_kernel, cesaro, gen_cesaro, hardy_type,
                         moment)
from hhl.adjoint import duality_residual, _sa_values
from hhl.hausdorff import transform_values
from hhl.realline import SampledLine, eval_at
from hhl.report import emit

EPSILONS = (0.2, 0.1, 0.05, 0.02)
Y_SEQ = (0.5, 0.1, 0.02, 2e-3, 2e-4, 2e-5)


def _verdict(name: str, ok: bool, detail: str = ""):
    print(f"[{'PASS' if ok else 'FAIL'}] {name}" + (f" ({detail})" if detail else ""))
    assert ok, f"{name}: {detail}"


def test_criterion_1_sharp_norm_identity():
    t0 = time.time()
    cases = [
        ("cesaro p=2", cesaro(), 2.0, 2.0),
        ("cesaro p=1", cesaro(), 1.0, 1.0),
        ("hardy p=2", hardy_type(), 2.0, 2.0),
        ("gencesaro(2) p=2", gen_cesaro(2.0), 2.0, 8.0 / 3.0),
    ]
    details = []
    ok = True
    for name, k, p, target in cases:
        m = moment(k, p)
        ok &= m.finite and abs(m.value - target) / target < 1e-8
        quotients = norm_lower_bound_sweep(k, p, EPSILONS, L=1e4)
        ok &= all(q <= target * (1 + 1e-6) for q in quotients)
        ok &= max(quotients) >= 0.97 * target
        details.append(f"{name}: best/target={max(quotients) / target:.4f}")
    elapsed = time.time() - t0
    ok &= elapsed <= 120.0
    _verdict("criterion 1: sharp norm identity", ok,
             "; ".join(details) + f"; {elapsed:.0f}s")


def test_criterion_2_unboundedness_direction():
    a = moment(cesaro(), math.inf)
    b = moment(hardy_type(), 1.0)
    ok = math.isinf(a.value) and math.isinf(b.value)
    cfg = RunConfig(kernel={"kind": "hardy"}, p_list=(1.0,), suites=("norm",))
    from hhl.cli import run_suite
    rep = run_suite("norm", cfg)
    ok &= rep.passed and any("unbounded" in r.check for r in rep.rows)
    _verdict("criterion 2: unboundedness direction", ok,
             f"cesaro p=inf -> {a.value}, hardy p=1 -> {b.value}")


def test_criterion_3_boundary_identity():
    t0 = time.time()
    details = []
    ok = True
    for name, k, f, p in (("cesaro/(z+i)^-2 p=1", cesaro(), InverseSquare(), 1.0),
                          ("hardy/(z+i)^-1 p=2", hardy_type(),
                           CayleyPower(1.0, 1.0), 2.0)):
        errs, f_norm = boundary_identity_check(k, f, p, Y_SEQ)
        strictly = all(a > b for a, b in zip(errs, errs[1:]))
        final = errs[-1] / f_norm
        ok &= strictly and final <= 1e-3
        details.append(f"{name}: final rel={final:.1e}")
    elapsed = time.time() - t0
    ok &= elapsed <= 60.0
    _verdict("criterion 3: boundary identity", ok,
             "; ".join(details) + f"; {elapsed:.0f}s")


def test_criterion_4_commutation():
    t0 = time.time()
    corpus = [
        ("gauss", lambda x: np.exp(-np.asarray(x) ** 2), None),
        ("xgauss", lambda x: np.asarray(x) * np.exp(-np.asarray(x) ** 2), None),
        ("P1diff", lambda x: (1 / math.pi) / (1 + np.asarray(x) ** 2)
         - (1 / math.pi) / (1 + (np.asarray(x) - 1) ** 2), 2.0),
    ]
    fs = [SampledLine.from_function(fn, 64.0, 1 << 14, tail_power=tp, label=fname)
          for fname, fn, tp in corpus]
    residuals = commutation_check((cesaro(), hardy_type()), fs, 2.0)
    worst = max(max(per_k) for per_k in residuals)
    ok = [len(per_k) for per_k in residuals] == [3, 3] and worst <= 1e-5
    elapsed = time.time() - t0
    ok &= elapsed <= 90.0
    _verdict("criterion 4: Hilbert commutation", ok,
             f"worst residual={worst:.2e}; {elapsed:.0f}s")


def test_criterion_5_lp_lower_bounds():
    t0 = time.time()
    ok = True
    details = []
    for name, k in (("cesaro", cesaro()), ("hardy", hardy_type()),
                    ("gencesaro(2)", gen_cesaro(2.0))):
        for p in (2.0, 4.0):
            m = moment(k, p).value
            (large,), (small,) = lp_lower_bound_sweep(k, p, (0.02,))
            lo = min(large, small) / m
            ok &= lo >= 0.9
            ok &= max(large, small) <= m * (1 + 1e-6)
            details.append(f"{name} p={p:g}: {lo:.3f}")
    elapsed = time.time() - t0
    ok &= elapsed <= 120.0
    _verdict("criterion 5: line-space witnesses", ok,
             "; ".join(details) + f"; {elapsed:.0f}s")


def test_criterion_6_h1_residual_decay():
    t0 = time.time()
    q = h1_lowerbound_check(cesaro(), (0.2, 0.1, 0.02))
    ok = q[0] > q[1] > q[2] and q[2] < 5e-2
    elapsed = time.time() - t0
    ok &= elapsed <= 60.0
    _verdict("criterion 6: H1 residual decay", ok,
             f"residuals={[f'{v:.3f}' for v in q]}; {elapsed:.0f}s")


def test_criterion_7_property_suites():
    ok = True
    details = []

    # Hilbert involution / isometry / antisymmetry at stated tolerances
    fn = lambda x: np.exp(-np.asarray(x, dtype=float) ** 2 / 32.0) * np.cos(3.0 * np.asarray(x))
    f = SampledLine.from_function(fn, 64.0, 1 << 12)
    hf = hilbert(f, "fft")
    hhf = hilbert(hf, "fft")
    l2 = lambda v: float(np.sqrt(np.sum(np.abs(v) ** 2) * f.h))
    inv = l2(hhf.values + f.values) / l2(f.values)
    iso = abs(l2(hf.values) - l2(f.values)) / l2(f.values)
    refl = SampledLine.from_function(lambda x: fn(-np.asarray(x, dtype=float)),
                                     64.0, 1 << 12)
    anti = float(np.max(np.abs(hilbert(refl, "fft").values[1:]
                               + hilbert(f, "fft").values[1:][::-1])))
    ok &= inv < 1e-7 and iso < 1e-7 and anti < 1e-10
    details.append(f"inv={inv:.1e} iso={iso:.1e} anti={anti:.1e}")

    # Poisson semigroup at 1e-6
    from hhl.halfplane import poisson_extend
    g = SampledLine.from_function(lambda x: np.exp(-np.asarray(x) ** 2 / 8.0),
                                  48.0, 1 << 14)
    semi = float(np.max(np.abs(
        poisson_extend(poisson_extend(g, 0.5), 0.7).values
        - poisson_extend(g, 1.2).values)))
    ok &= semi < 1e-6
    details.append(f"semigroup={semi:.1e}")

    # reciprocal-kernel involution at 1e-12
    worst_inv = 0.0
    ts = np.geomspace(1e-3, 1e3, 100)
    for k in (cesaro(), hardy_type(), gen_cesaro(1.5)):
        kk = adjoint_kernel(adjoint_kernel(k))
        a, b = k(ts), kk(ts)
        worst_inv = max(worst_inv, float(np.max(np.abs(a - b)
                                                / np.maximum(np.abs(a), 1e-300))))
    ok &= worst_inv < 1e-12
    details.append(f"reciprocal-involution={worst_inv:.1e}")

    # duality residual < 1e-6 on the smooth corpus
    fl = SampledLine.from_function(lambda x: np.exp(-np.asarray(x) ** 2),
                                   32.0, 1 << 12, label="f")
    gl = SampledLine.from_function(lambda x: np.exp(-0.5 * (np.asarray(x) - 1) ** 2),
                                   32.0, 1 << 12, label="g")
    worst_dual = max(duality_residual(k, fl, gl, 2.0)
                     for k in (cesaro(), hardy_type()))
    ok &= worst_dual < 1e-6
    details.append(f"duality={worst_dual:.1e}")

    # companion operator equals the reciprocal-kernel transform at 10*tol
    probe = np.linspace(-10, 10, 31) + 0.013
    worst_eq = 0.0
    for k in (cesaro(), hardy_type()):
        direct = _sa_values(k, lambda x: eval_at(fl, x), probe, 1e-9)
        via = transform_values(adjoint_kernel(k), lambda x: eval_at(fl, x),
                               probe, tol=1e-9)
        worst_eq = max(worst_eq, float(np.max(np.abs(direct - via))))
    ok &= worst_eq < 1e-8
    details.append(f"companion-equiv={worst_eq:.1e}")

    # BMO bounds with 5% slack, or both norms vanish
    bmo_ok = all(on / bound <= 1.05 if bound > 0 else on <= 1e-12
                 for k in (cesaro(), hardy_type())
                 for _, _, on, bound in bmo_bound_check(k, N=1 << 10)[2])
    ok &= bmo_ok
    details.append(f"bmo={'ok' if bmo_ok else 'FAIL'}")

    # H1 ratio corridors stable across the seeded corpus
    rng = np.random.default_rng(20240811)
    lo, hi = RATIO_CORRIDOR
    corridor_ok = True
    from hhl.hardy_bmo import AtomicDecomposition, make_atom
    for _ in range(4):
        n = int(rng.integers(1, 4))
        w = rng.dirichlet(np.ones(n))
        terms = tuple(
            (float(w[j]), make_atom(float(rng.uniform(-8, 8)),
                                    float(rng.uniform(0.25, 4.0)),
                                    ("haar", "sine", "bump")[int(rng.integers(0, 3))]))
            for j in range(n))
        rep = h1_report(AtomicDecomposition(terms=terms), scales=32)
        corridor_ok &= all(math.isfinite(v) and v > 0 for v in rep.values())
        corridor_ok &= all(lo <= v <= hi for v in _pairwise_ratios(rep).values())
    ok &= corridor_ok
    details.append(f"h1-corridor={'ok' if corridor_ok else 'FAIL'}")

    _verdict("criterion 7: property suites", ok, "; ".join(details))


def test_criterion_8_determinism(tmp_path):
    cfg = RunConfig(suites=("moment", "bmo", "h1"), seed=12345, N=1 << 10)
    emit(run_suites(cfg), tmp_path / "a", fmt="json")
    emit(run_suites(cfg), tmp_path / "b", fmt="json")
    a = (tmp_path / "a" / "report.json").read_bytes()
    b = (tmp_path / "b" / "report.json").read_bytes()
    _verdict("criterion 8: determinism", a == b,
             f"{len(a)} bytes, bit-identical={a == b}")
