"""Check a ``gm run`` report against the independent expectations.

Each expected row is attempted once; it fails when it is missing, appears
twice, is marked as failing, carries another tolerance than the catalog's,
or disagrees with its independent truth.  Rows the report has that no
expectation names count as attempted and failed too.
"""

from __future__ import annotations

import csv
import io
import json
from dataclasses import dataclass

from workloads import Expect, Scenario

# a right side evaluated from a closed-form expression must match the
# benchmark's own value to this relative precision
EXPRESSION_RTOL = 1e-12


@dataclass(frozen=True)
class Row:
    scenario: str
    check: str
    lhs: float
    rhs: float
    tolerance: float
    passed: bool


def parse_csv(text: str) -> list[Row]:
    reader = csv.DictReader(io.StringIO(text))
    return [Row(r["scenario"], r["check"], float(r["lhs"]), float(r["rhs"]),
                float(r["tolerance"]), r["pass"] == "true") for r in reader]


def parse_json(text: str) -> list[Row]:
    return [Row(r["scenario"], r["check"], float(r["lhs"]), float(r["rhs"]),
                float(r["tolerance"]), r["pass"] is True)
            for r in json.loads(text)["rows"]]


def rel_diff(a: float, b: float) -> float:
    """|a - b| relative to the larger magnitude; absolute when both are zero
    or the reference ``b`` is zero."""
    diff = abs(a - b)
    if b == 0.0:
        return diff
    return diff / max(abs(a), abs(b))


def row_problem(row: Row, exp: Expect) -> str | None:
    """Why ``row`` fails ``exp``, or None when it agrees."""
    if not row.passed:
        return "the report marks the row as failing"
    if row.tolerance != exp.tol:
        return f"tolerance {row.tolerance!r} is not the catalog's {exp.tol!r}"
    lhs, rhs = row.lhs, row.rhs
    rule = exp.rule
    if rule == "exact" or rule == "raises":
        if lhs != exp.value or rhs != exp.rhs:
            return f"sides {lhs!r}, {rhs!r} are not {exp.value!r}, {exp.rhs!r}"
    elif rule == "zero":
        if rhs != 0.0 or not 0.0 <= lhs <= exp.tol:
            return f"defect {lhs!r} is not within {exp.tol!r} of zero"
    elif rule == "shortfall":
        if lhs != 0.0 or rhs != 0.0:
            return f"shortfall {lhs!r} below the floor"
    elif rule == "two_sided":
        if rel_diff(lhs, rhs) > exp.tol:
            return f"sides {lhs!r} and {rhs!r} differ beyond {exp.tol!r}"
    elif rule == "close":
        if rel_diff(lhs, exp.value) > exp.tol:
            return f"value {lhs!r} is not within {exp.tol!r} of {exp.value!r}"
        if exp.rhs is not None and rel_diff(rhs, exp.rhs) > EXPRESSION_RTOL:
            return f"reference {rhs!r} is not the closed form {exp.rhs!r}"
    elif rule == "bounded":
        if abs(lhs - exp.value) > exp.bound:
            return (f"value {lhs!r} is farther than {exp.bound!r} from the "
                    f"closed form {exp.value!r}")
        if rel_diff(lhs, rhs) > exp.tol:
            return f"sides {lhs!r} and {rhs!r} differ beyond {exp.tol!r}"
    else:
        raise ValueError(f"unknown rule {rule!r}")
    return None


def check_report(rows: list[Row] | None, scenarios: list[Scenario]
                 ) -> tuple[int, int, list[str]]:
    """(attempted, failed, problems) for one pass; ``rows`` None means the
    pass produced no report, so every expected row failed."""
    expected = {(s.name, e.label): e for s in scenarios for e in s.expects}
    problems: list[str] = []
    if rows is None:
        return len(expected), len(expected), ["no report was written"]
    seen: dict[tuple[str, str], int] = {}
    for row in rows:
        key = (row.scenario, row.check)
        seen[key] = seen.get(key, 0) + 1
    unexpected = [k for k in seen if k not in expected]
    problems += [f"{key}: not expected" for key in unexpected]
    failed = len(unexpected)
    for key in expected:
        count = seen.get(key, 0)
        if count != 1:
            failed += 1
            problems.append(f"{key}: appears {count} times")
    for row in rows:
        key = (row.scenario, row.check)
        exp = expected.get(key)
        if exp is not None and seen[key] == 1:
            why = row_problem(row, exp)
            if why:
                failed += 1
                problems.append(f"{key}: {why}")
    return len(expected) + len(unexpected), failed, problems
