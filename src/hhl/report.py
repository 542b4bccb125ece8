"""Structured verification reports and their CSV/JSON emission.

A report is a list of check rows, each pairing a computed quantity with
its predicted value, a residual and a tolerance; a row passes when its
residual is at most its tolerance.  Emission is canonical:
rows are sorted by (suite, check), floats serialized via repr, and the
JSON output contains no timing so identical runs are byte-identical.
"""

from __future__ import annotations

import csv
import json
import math
import numbers
from dataclasses import dataclass, field
from pathlib import Path

__all__ = ["CheckRow", "VerificationReport", "emit"]


def _fmt(v) -> str:
    if isinstance(v, str):
        return v
    if isinstance(v, numbers.Real) and not isinstance(v, numbers.Integral):
        v = float(v)  # unwraps numpy scalars
        if math.isinf(v):
            return "inf" if v > 0 else "-inf"
        return repr(v)
    return repr(v)


@dataclass(frozen=True)
class CheckRow:
    """One verified claim: computed vs predicted at a tolerance."""

    suite: str
    check: str
    anchor: str
    computed: object
    predicted: object
    residual: float
    tol: float

    @property
    def passed(self) -> bool:
        """The one gate: a residual at its tolerance passes, NaN fails."""
        return bool(self.residual <= self.tol)


@dataclass
class VerificationReport:
    """Rows of one suite plus the environment that produced them."""

    suite: str
    rows: list
    environment: dict = field(default_factory=dict)
    wall_time_s: float = 0.0

    @property
    def passed(self) -> bool:
        return all(r.passed for r in self.rows)

    def sorted_rows(self):
        return sorted(self.rows, key=lambda r: (r.suite, r.check))

    def to_jsonable(self) -> dict:
        # wall time deliberately excluded: byte-identical reruns
        return {
            "suite": self.suite,
            "passed": self.passed,
            "environment": {k: self.environment[k] for k in sorted(self.environment)},
            "rows": [
                {
                    "suite": r.suite,
                    "check": r.check,
                    "anchor": r.anchor,
                    "computed": _fmt(r.computed),
                    "predicted": _fmt(r.predicted),
                    "residual": _fmt(r.residual),
                    "tol": _fmt(r.tol),
                    "pass": r.passed,
                }
                for r in self.sorted_rows()
            ],
        }


_CSV_COLUMNS = ["suite", "check", "anchor", "computed", "predicted",
                "residual", "tol", "pass"]


def emit(reports, out_dir, fmt: str = "both", stem: str = "report"):
    """Write reports under ``out_dir`` as CSV and/or JSON.

    Returns the list of paths written.  CSV carries one row per check;
    JSON mirrors the full structure (minus wall time).
    """
    if fmt not in ("csv", "json", "both"):
        raise ValueError(f"unknown format {fmt!r}")
    if isinstance(reports, VerificationReport):
        reports = [reports]
    reports = sorted(reports, key=lambda r: r.suite)
    out = Path(out_dir)
    out.mkdir(parents=True, exist_ok=True)
    written = []
    if fmt in ("csv", "both"):
        path = out / f"{stem}.csv"
        with open(path, "w", newline="", encoding="utf-8") as fh:
            w = csv.writer(fh)
            w.writerow(_CSV_COLUMNS)
            for rep in reports:
                for r in rep.sorted_rows():
                    w.writerow([r.suite, r.check, r.anchor, _fmt(r.computed),
                                _fmt(r.predicted), _fmt(r.residual),
                                _fmt(r.tol), "true" if r.passed else "false"])
        written.append(path)
    if fmt in ("json", "both"):
        path = out / f"{stem}.json"
        payload = {"reports": [rep.to_jsonable() for rep in reports]}
        with open(path, "w", encoding="utf-8") as fh:
            json.dump(payload, fh, indent=2, sort_keys=True)
            fh.write("\n")
        written.append(path)
    return written

