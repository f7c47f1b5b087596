"""Check reports: rows of two-sided comparisons with pass/fail verdicts."""

from __future__ import annotations

import csv
import io
import json
from dataclasses import dataclass
from fractions import Fraction


def relative_error(lhs: float | Fraction, rhs: float | Fraction) -> float | Fraction:
    """|lhs - rhs| / max(|lhs|, |rhs|), or |lhs - rhs| when the reference rhs is 0."""
    if rhs == 0:
        return abs(lhs - rhs)
    return abs(lhs - rhs) / max(abs(lhs), abs(rhs))


@dataclass(frozen=True)
class CheckRow:
    """One comparison.  The sides of an exact row may be ``int`` or
    ``Fraction``; its errors and verdict are then exact, and only the
    rendered report rounds them to floats."""
    scenario: str
    check: str
    lhs: float | Fraction
    rhs: float | Fraction
    tolerance: float
    exact: bool = False

    @property
    def abs_err(self) -> float | Fraction:
        return abs(self.lhs - self.rhs)

    @property
    def rel_err(self) -> float | Fraction:
        return relative_error(self.lhs, self.rhs)

    @property
    def passed(self) -> bool:
        if self.exact:
            return self.abs_err == 0
        return self.rel_err <= self.tolerance

    def rendered(self) -> dict[str, float]:
        """lhs, rhs, abs_err and rel_err as floats, as the reports write them."""
        return {"lhs": float(self.lhs), "rhs": float(self.rhs),
                "abs_err": float(self.abs_err), "rel_err": float(self.rel_err)}


@dataclass
class Report:
    rows: list[CheckRow]

    def passed(self) -> bool:
        return all(r.passed for r in self.rows)

    def summary(self) -> dict:
        ok = sum(r.passed for r in self.rows)
        return {"total": len(self.rows), "passed": ok, "failed": len(self.rows) - ok}

    def to_csv(self) -> str:
        out = io.StringIO()
        writer = csv.writer(out)
        writer.writerow(["scenario", "check", "lhs", "rhs", "abs_err", "rel_err",
                         "tolerance", "pass"])
        for r in self.rows:
            writer.writerow([r.scenario, r.check,
                             *(f"{v:.17g}" for v in r.rendered().values()),
                             f"{r.tolerance:.17g}", str(r.passed).lower()])
        return out.getvalue()

    def to_json(self) -> str:
        return json.dumps({
            "rows": [{
                "scenario": r.scenario, "check": r.check, **r.rendered(),
                "tolerance": r.tolerance, "pass": r.passed,
            } for r in self.rows],
            "summary": self.summary(),
        }, indent=2)
