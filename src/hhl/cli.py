"""Configuration-driven verification harness.

One suite per verified result family: kernel moments, sharp norms with
unboundedness rows, the boundary-value identity, line-space sweeps,
Hilbert commutation, H1 residual decay, BMO bounds, and the companion
operator's equivalences.  Runs are reproducible: a config plus seed
determines the report bytes.

Config schema (JSON object; flags override fields):
  kernel:   {"kind": "cesaro"|"hardy"|"gencesaro"|"table",
             "alpha": number?, "points": [[t, phi], ...]?}
  p_list:   [2, 4]            exponents for norm/lp suites
  L, N:     grid half-width and sample count (N a power of two)
  epsilons: [0.2, 0.1, 0.05, 0.02]
  y_seq:    boundary-identity heights, decreasing
  suites:   ["moment", ...]   subset to run
  seed:     integer, drives the random corpora
"""

from __future__ import annotations

import argparse
import json
import math
import re
import sys
import time
from dataclasses import dataclass, field, replace

import numpy as np
import numpy.random  # loaded lazily by numpy; load it with the module

from . import hardy_bmo
from .adjoint import duality_residual, sa_moment, _sa_values
from .halfplane import CayleyPower, InverseSquare
from .hausdorff import (boundary_identity_check, lp_lower_bound_sweep,
                        norm_lower_bound_sweep, transform_values)
from .hilbert import commutation_check
from .kernels import (Kernel, adjoint_kernel, cesaro, gen_cesaro, hardy_type,
                      kernel_from_config, moment)
from .quadrature import eval_budget
from .realline import SampledLine, eval_at
from .report import CheckRow, VerificationReport, emit

__all__ = ["RunConfig", "run_suite", "run_suites", "main", "SUITES"]


@dataclass(frozen=True)
class RunConfig:
    kernel: dict = field(default_factory=lambda: {"kind": "cesaro"})
    p_list: tuple = (2.0, 4.0)
    L: float = 64.0
    N: int = 1 << 12
    sweep_L: float = 1e4
    epsilons: tuple = (0.2, 0.1, 0.05, 0.02)
    y_seq: tuple = (0.5, 0.1, 0.02, 2e-3, 2e-4, 2e-5)
    suites: tuple = ()
    seed: int = 0
    out_dir: str = "reports"
    fmt: str = "both"

    def __post_init__(self):
        n = self.N
        if n < 16 or n & (n - 1):
            raise ValueError("N must be a power of two >= 16")
        if not (0 < self.L < math.inf and 1 < self.sweep_L < math.inf):
            raise ValueError("L must be positive, sweep_L above 1, both finite")
        if type(self.seed) is not int or self.seed < 0:
            raise ValueError("seed must be a nonnegative integer")
        if self.fmt not in ("csv", "json", "both"):
            raise ValueError(f"unknown format {self.fmt!r}")
        if not isinstance(self.out_dir, str):
            raise ValueError("out_dir must be a string")
        unknown = [s for s in self.suites if s not in SUITES]
        if unknown:
            raise ValueError(f"unknown suites {unknown}; choose from {sorted(SUITES)}")
        if not self.p_list or not all(p >= 1 for p in self.p_list):
            raise ValueError("p_list must be non-empty, entries in [1, inf]")
        k = kernel_from_config(self.kernel)  # malformed specs fail at parse time
        eps = self.epsilons
        if not (_decreasing(eps) and 0 < eps[-1] and eps[0] < 1):
            raise ValueError("epsilons must be non-empty, strictly decreasing "
                             "and inside (0, 1)")
        # kernels with mass beyond t = 1 use the shrinking-shift extremizers
        for p in self.p_list:
            if k.support[1] > 1.0 and 1 < p < math.inf and eps[0] >= 1 - 1 / p:
                raise ValueError(f"epsilons must lie below 1 - 1/p = "
                                 f"{1 - 1 / p:g} at p={p:g} for {k.label}")
        if not (_decreasing(self.y_seq) and self.y_seq[-1] > 0):
            raise ValueError("y_seq must be non-empty, strictly decreasing "
                             "and positive")

    def make_kernel(self) -> Kernel:
        return kernel_from_config(self.kernel)

    @classmethod
    def from_json(cls, path) -> "RunConfig":
        with open(path, encoding="utf-8") as fh:
            raw = json.load(fh)
        known = {f for f in cls.__dataclass_fields__}
        bad = set(raw) - known
        if bad:
            raise ValueError(f"unknown config fields: {sorted(bad)}")
        for key in ("p_list", "epsilons", "y_seq", "suites"):
            if key in raw:
                raw[key] = tuple(raw[key])
        return cls(**raw)


# pairwise-ratio corridor for the H1 characterizations, frozen after one
# calibration run over the seeded atom corpus (seed 20240811: observed
# range 0.24 .. 4.51, worst case the raw haar atom's proxy ratio); the
# equivalences guarantee some corridor exists, not its value
RATIO_CORRIDOR = (0.05, 20.0)


def _decreasing(seq) -> bool:
    """Non-empty and strictly decreasing."""
    return len(seq) > 0 and all(a > b for a, b in zip(seq, seq[1:]))


def _row(suite, check, anchor, computed, predicted, residual, tol):
    return CheckRow(suite=suite, check=check, anchor=anchor,
                    computed=computed, predicted=predicted,
                    residual=float(residual), tol=float(tol))


def _closed_moment(kind: str, alpha: float | None, p: float) -> float:
    """Independent closed forms for the built-in kernel moments."""
    if kind == "cesaro":
        return p if math.isfinite(p) else math.inf
    if kind == "hardy":
        if p == 1 or (math.isfinite(p) and p < 1):
            return math.inf
        return 1.0 if math.isinf(p) else p / (p - 1.0)
    if kind == "gencesaro":
        if math.isinf(p):
            return math.inf
        # B(1/p, alpha) as a Gamma ratio, through lgamma where Gamma overflows
        a = 1.0 / p
        if a + alpha < 171.0:
            return alpha * (math.gamma(a) * math.gamma(alpha) / math.gamma(a + alpha))
        return alpha * math.exp(math.lgamma(a) + math.lgamma(alpha) - math.lgamma(a + alpha))
    raise ValueError(kind)


def suite_moment(config: RunConfig) -> VerificationReport:
    """Kernel moments against closed forms, at every requested p."""
    rows = []
    specs = [("cesaro", None, cesaro()), ("hardy", None, hardy_type()),
             ("gencesaro(2)", 2.0, gen_cesaro(2.0))]
    ps = tuple(config.p_list) + (1.0, math.inf)
    for name, alpha, k in specs:
        kind = k.kind
        for p in sorted(set(ps), key=lambda v: (math.isinf(v), v)):
            predicted = _closed_moment(kind, alpha, p)
            got = moment(k, p).value
            if math.isinf(predicted):
                resid = 0.0 if math.isinf(got) else 1.0
            else:
                resid = abs(got - predicted) / abs(predicted)
            rows.append(_row("moment", f"{name} p={p:g}", "moment-formula",
                             got, predicted, resid, 1e-8))
    return VerificationReport(suite="moment", rows=rows,
                              environment={"p_list": list(config.p_list)})


def suite_norm(config: RunConfig) -> VerificationReport:
    """Sharp-norm sweeps plus the unboundedness direction."""
    k = config.make_kernel()
    rows = []
    for p in config.p_list:
        if math.isinf(p):
            continue
        m = moment(k, p)
        if not m.finite:
            rows.append(_row("norm", f"p={p:g} unbounded", "unbounded-direction",
                             "inf", "inf", 0.0, 0.5))
            continue
        sweep = norm_lower_bound_sweep(k, p, config.epsilons, L=config.sweep_L)
        sandwich = max(q / m.value for q in sweep.quotients)
        rows.append(_row("norm", f"p={p:g} quotients under moment",
                         "sharp-norm", sandwich, 1.0, max(0.0, sandwich - 1.0),
                         1e-6))
        # generic floor 0.95 at eps = 0.02 (large p converges slower; the
        # acceptance gate pins 0.97 on its specific cases)
        rows.append(_row("norm", f"p={p:g} best quotient", "sharp-norm",
                         sweep.best, m.value, 1.0 - sweep.best / m.value,
                         0.05))
    # unbounded rows for the classical endpoint cases
    for label, kk, p in (("cesaro p=inf", cesaro(), math.inf),
                         ("hardy p=1", hardy_type(), 1.0)):
        got = moment(kk, p).value
        rows.append(_row("norm", f"{label} reports unbounded",
                         "unbounded-direction",
                         "inf" if math.isinf(got) else got, "inf",
                         0.0 if math.isinf(got) else 1.0, 0.5))
    return VerificationReport(suite="norm", rows=rows,
                              environment={"kernel": k.label,
                                           "epsilons": list(config.epsilons)})


def suite_boundary(config: RunConfig) -> VerificationReport:
    """Boundary-value identity for the two reference pairs: e(y) falls
    strictly with y, and the last e(y) is below 1e-3 of |f*|_p."""
    rows = []
    for k, f, p in ((cesaro(), InverseSquare(), 1.0),
                    (hardy_type(), CayleyPower(1.0, 1.0), 2.0)):
        errs, f_norm = boundary_identity_check(k, f, p, config.y_seq, L=config.L)
        for y, e, nxt in zip(config.y_seq, errs, errs[1:] + [None]):
            decreasing = nxt is None or e > nxt
            rows.append(_row("boundary", f"{k.label}: e(y={y:g}) decreasing",
                             "boundary-limit", e, "decreasing in y",
                             0.0 if decreasing else 1.0, 0.5))
        final = errs[-1] / f_norm
        rows.append(_row("boundary", f"{k.label}: final relative error",
                         "boundary-limit", final, 0.0, final, 1e-3))
    return VerificationReport(suite="boundary", rows=rows,
                              environment={"y_seq": list(config.y_seq)})


def _line_corpus(L: float, N: int):
    return [
        SampledLine.from_function(lambda x: np.exp(-x * x), L, N, label="gauss"),
        SampledLine.from_function(lambda x: x * np.exp(-x * x), L, N,
                                  label="xgauss"),
        SampledLine.from_function(
            lambda x: (1 / math.pi) / (1 + x * x)
            - (1 / math.pi) / (1 + (x - 1) ** 2), L, N,
            tail_power=2.0, label="P1diff"),
    ]


def suite_lp(config: RunConfig) -> VerificationReport:
    """Line-space lower-bound sweeps for both power families."""
    k = config.make_kernel()
    rows = []
    for p in config.p_list:
        if not (1.0 < p < math.inf):
            continue
        m = moment(k, p)
        if not m.finite:
            rows.append(_row("lp", f"p={p:g} unbounded", "unbounded-direction",
                             "inf", "inf", 0.0, 0.5))
            continue
        eps = min(config.epsilons)
        large, small = lp_lower_bound_sweep(k, p, (eps,), L=config.sweep_L)
        for sweep, side in ((large, "large-scale"), (small, "small-scale")):
            q = sweep.quotients[0]
            rows.append(_row("lp", f"p={p:g} {side} witness", "line-sharp-norm",
                             q, m.value, 1.0 - q / m.value, 0.10))
            rows.append(_row("lp", f"p={p:g} {side} under moment",
                             "line-sharp-norm", q / m.value, 1.0,
                             max(0.0, q / m.value - 1.0), 1e-6))
    return VerificationReport(suite="lp", rows=rows,
                              environment={"kernel": k.label})


def suite_commute(config: RunConfig) -> VerificationReport:
    """Hilbert-transform commutation over the smooth corpus.

    The 1e-5 gate is calibrated at the reference grid (L=64, N=2^14);
    coarser config grids would inflate the origin-layer residual, so the
    corpus geometry is pinned here.
    """
    L, N = 64.0, 1 << 14
    kernels, fs = (cesaro(), hardy_type()), _line_corpus(L, N)
    residuals = commutation_check(kernels, fs, 2.0)
    rows = [_row("commute", f"{k.label} on {f.label}", "hilbert-commutation",
                 r, 0.0, r, 1e-5)
            for k, per_k in zip(kernels, residuals) for f, r in zip(fs, per_k)]
    return VerificationReport(suite="commute", rows=rows,
                              environment={"L": L, "N": N})


def suite_h1(config: RunConfig) -> VerificationReport:
    """H1 residual decay plus the characterization-ratio regression."""
    k = config.make_kernel()
    rows = []
    eps = tuple(sorted(config.epsilons, reverse=True))
    if not moment(k, 1.0).finite:
        # the integral of phi diverges: the paper's unbounded direction at p = 1
        rows.append(_row("h1", "p=1 unbounded", "unbounded-direction",
                         "inf", "inf", 0.0, 0.5))
    else:
        sweep = hardy_bmo.h1_lowerbound_check(k, eps)
        decreasing = all(sweep.quotients[i] > sweep.quotients[i + 1]
                         for i in range(len(eps) - 1))
        rows.append(_row("h1", "residuals decrease in eps", "h1-lower-bound",
                         "decreasing" if decreasing else "not-decreasing",
                         "decreasing", 0.0 if decreasing else 1.0, 0.5))
        rows.append(_row("h1", f"final residual eps={eps[-1]:g}", "h1-lower-bound",
                         sweep.quotients[-1], 0.0, sweep.quotients[-1], 5e-2))

    rng = np.random.default_rng(config.seed)
    lo, hi = RATIO_CORRIDOR
    corpus = [_random_decomposition(rng) for _ in range(3)]
    for i, rep in enumerate(hardy_bmo.h1_report(corpus, L=config.L, N=config.N)):
        ratios = rep.ratios().values()
        # every pairwise ratio must stay inside the frozen corridor
        excess = max(max(v / hi, lo / v) for v in ratios)
        rows.append(_row("h1", f"corpus[{i}] ratios in corridor",
                         "h1-equivalences", max(ratios), hi, excess, 1.0))
    return VerificationReport(suite="h1", rows=rows,
                              environment={"kernel": k.label, "seed": config.seed})


def _random_decomposition(rng) -> "hardy_bmo.AtomicDecomposition":
    terms = []
    n = int(rng.integers(2, 5))
    weights = rng.dirichlet(np.ones(n))
    for w in weights:
        center = float(rng.uniform(-8, 8))
        half = float(rng.uniform(0.25, 4.0))
        shape = ("haar", "sine", "bump")[int(rng.integers(0, 3))]
        terms.append((float(w), hardy_bmo.make_atom(center, half, shape)))
    return hardy_bmo.AtomicDecomposition(terms=tuple(terms))


def suite_bmo(config: RunConfig) -> VerificationReport:
    """BMO boundedness rows for the transform and its companion: each
    output's BMO norm at most 1.05 times its bound (5% discretization
    slack); 0 when both vanish."""
    k = config.make_kernel()
    L, N = config.L, min(config.N, 1 << 12)
    m_T, m_S, measured = hardy_bmo.bmo_bound_check(k, L=L, N=N)
    rows = []
    for op, name, on, bound in measured:
        resid = 0.0 if bound == 0 and on <= 1e-12 else \
            (on / bound if bound > 0 else math.inf)
        rows.append(_row("bmo", f"{op} on {name}", f"bmo-{op}", on, bound,
                         resid, 1.05))
    return VerificationReport(
        suite="bmo", rows=rows,
        environment={"kernel": k.label, "L": L, "N": N,
                     "depth": hardy_bmo.BMO_DEPTH, "reciprocal_mass": m_T,
                     "mass": m_S})


def suite_adjoint(config: RunConfig) -> VerificationReport:
    """Companion-operator equivalence, norm formula, and duality."""
    k = config.make_kernel()
    rows = []
    adj = adjoint_kernel(k)
    # pointwise operator equivalence at probe nodes
    probe = np.linspace(-20.0, 20.0, 41) + 0.017
    f = SampledLine.from_function(lambda x: np.exp(-0.25 * x * x),
                                  config.L, config.N, label="gauss")
    via_adj = transform_values(adj, lambda x: eval_at(f, x), probe, tol=1e-10)
    direct = _sa_values(k, lambda x: eval_at(f, x), probe, 1e-10)
    dev = float(np.max(np.abs(via_adj - direct)))
    rows.append(_row("adjoint", "companion equals reciprocal transform",
                     "companion-equivalence", dev, 0.0, dev, 1e-8))
    for p in config.p_list:
        if math.isinf(p):
            continue
        m1 = sa_moment(k, p)
        m2 = moment(adj, p)
        if not (m1.finite and m2.finite):
            match = m1.finite == m2.finite
            rows.append(_row("adjoint", f"p={p:g} moment equality (divergent)",
                             "companion-norm", "inf", "inf",
                             0.0 if match else 1.0, 0.5))
            continue
        resid = abs(m1.value - m2.value) / max(abs(m2.value), 1e-300)
        rows.append(_row("adjoint", f"p={p:g} moment equality",
                         "companion-norm", m1.value, m2.value, resid, 1e-8))
    g = SampledLine.from_function(lambda x: np.exp(-0.5 * (x - 1.0) ** 2),
                                  config.L, config.N, label="gauss-shift")
    # the pairings do not depend on p: one call normalises them per p
    ps = [p for p in config.p_list if 1.0 < p < math.inf and moment(k, p).finite]
    for p, resid in zip(ps, duality_residual(k, f, g, ps) if ps else []):
        rows.append(_row("adjoint", f"p={p:g} duality residual", "duality",
                         resid, 0.0, resid, 1e-6))
    return VerificationReport(suite="adjoint", rows=rows,
                              environment={"kernel": k.label})


SUITES = {
    "moment": suite_moment,
    "norm": suite_norm,
    "boundary": suite_boundary,
    "lp": suite_lp,
    "commute": suite_commute,
    "h1": suite_h1,
    "bmo": suite_bmo,
    "adjoint": suite_adjoint,
}


def run_suite(name: str, config: RunConfig) -> VerificationReport:
    if name not in SUITES:
        raise ValueError(f"unknown suite {name!r}; choose from {sorted(SUITES)}")
    t0 = time.perf_counter()
    rep = SUITES[name](config)
    rep.wall_time_s = time.perf_counter() - t0
    rep.environment.setdefault("seed", config.seed)
    return rep


def _error_report(name: str, exc: Exception, config: RunConfig) -> VerificationReport:
    """One failing row for a suite that raised; object addresses are cut
    from the message so reruns stay byte-identical."""
    message = re.sub(r" at 0x[0-9a-fA-F]+", "", str(exc))
    row = CheckRow(suite=name, check="suite raised", anchor="harness",
                   computed=f"{type(exc).__name__}: {message}",
                   predicted="no exception", residual=1.0, tol=0.5)
    return VerificationReport(suite=name, rows=[row],
                              environment={"seed": config.seed})


def run_suites(config: RunConfig):
    """Every requested suite in name order; a suite that raises becomes a
    failing error row and the others still run."""
    reports = []
    for name in sorted(config.suites or SUITES):
        try:
            reports.append(run_suite(name, config))
        except Exception as exc:
            reports.append(_error_report(name, exc, config))
    return reports


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        prog="hhl",
        description="Verification harness for the averaging-transform toolkit")
    parser.add_argument("--config", help="JSON config file")
    parser.add_argument("--suite", help="comma-separated suite names "
                        f"(default: all of {sorted(SUITES)})")
    parser.add_argument("--out", default=None, help="output directory")
    parser.add_argument("--format", choices=("csv", "json", "both"),
                        default=None)
    parser.add_argument("--seed", type=int, default=None)
    args = parser.parse_args(argv)

    try:
        config = RunConfig.from_json(args.config) if args.config else RunConfig()
        overrides = {}
        if args.suite:
            overrides["suites"] = tuple(
                s.strip() for s in args.suite.split(",") if s.strip())
        if args.out:
            overrides["out_dir"] = args.out
        if args.format:
            overrides["fmt"] = args.format
        if args.seed is not None:
            overrides["seed"] = args.seed
        if overrides:
            config = replace(config, **overrides)
        eval_budget()  # a malformed HHL_BUDGET fails here, not mid-run
    except (ValueError, TypeError, OSError, json.JSONDecodeError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2

    reports = run_suites(config)
    emit(reports, config.out_dir, fmt=config.fmt)
    ok = True
    for rep in reports:
        for r in rep.sorted_rows():
            status = "PASS" if r.passed else "FAIL"
            print(f"[{status}] {rep.suite}/{r.check}: computed={r.computed} "
                  f"predicted={r.predicted} residual={r.residual:.3g} "
                  f"tol={r.tol:g}")
        ok = ok and rep.passed
        print(f"suite {rep.suite}: {'pass' if rep.passed else 'FAIL'} "
              f"({rep.wall_time_s:.1f}s)")
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
