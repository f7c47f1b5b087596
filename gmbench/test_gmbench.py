"""Tests of the benchmark's own checking and tracing (no ``gm`` runs).

    PYTHONPATH=src python3 -m pytest -q gmbench
"""

from __future__ import annotations

import dataclasses
import json
import math
import os
import sys

import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
SRC = os.path.join(os.path.dirname(HERE), "src")
BUNDLED_DIR = os.path.join(SRC, "groupoid_measures", "scenarios")
sys.path.insert(0, HERE)

import oracle  # noqa: E402
import tracer  # noqa: E402
import workloads  # noqa: E402
from workloads import Expect, Scenario  # noqa: E402


def agreeing_row(scenario: str, exp: Expect) -> oracle.Row:
    """A report row that satisfies ``exp``."""
    if exp.rule in ("exact", "raises"):
        lhs, rhs = exp.value, exp.rhs
    elif exp.rule in ("zero", "shortfall"):
        lhs, rhs = 0.0, 0.0
    elif exp.rule == "two_sided":
        lhs = rhs = 1.5
    elif exp.rule == "close":
        lhs = exp.value
        rhs = exp.value if exp.rhs is None else exp.rhs
    else:
        lhs = rhs = exp.value
    return oracle.Row(scenario, exp.label, float(lhs), float(rhs), exp.tol, True)


def agreeing_report(scenarios: list[Scenario]) -> list[oracle.Row]:
    return [agreeing_row(s.name, e) for s in scenarios for e in s.expects]


def tamper(row: oracle.Row) -> oracle.Row:
    """The same row with a left side that no rule accepts."""
    return dataclasses.replace(row, lhs=row.lhs + 1.0 + abs(row.lhs))


@pytest.mark.parametrize("workload", ["bundled", "many_small"])
def test_each_tampered_row_is_counted_failed(workload):
    scenarios = (workloads.bundled(BUNDLED_DIR) if workload == "bundled"
                 else workloads.many_small(3))
    rows = agreeing_report(scenarios)
    assert oracle.check_report(rows, scenarios) == (len(rows), 0, [])
    expects = [e for s in scenarios for e in s.expects]
    for row, exp in zip(rows, expects):
        assert oracle.row_problem(tamper(row), exp) is not None, row
    middle = len(rows) // 2
    broken = rows[:middle] + [tamper(rows[middle])] + rows[middle + 1:]
    assert oracle.check_report(broken, scenarios)[:2] == (len(rows), 1)


def test_bundled_has_the_88_rows_of_the_14_scenarios():
    scenarios = workloads.bundled(BUNDLED_DIR)
    assert len(scenarios) == 14
    assert sum(len(s.expects) for s in scenarios) == 88


def test_missing_duplicate_failing_and_unexpected_rows_fail():
    scenarios = workloads.many_small(1)
    rows = agreeing_report(scenarios)
    n = len(rows)
    assert oracle.check_report(rows[1:], scenarios)[:2] == (n, 1)
    assert oracle.check_report(rows + rows[:1], scenarios)[:2] == (n, 1)
    marked = dataclasses.replace(rows[0], passed=False)
    assert oracle.check_report([marked] + rows[1:], scenarios)[:2] == (n, 1)
    loosened = dataclasses.replace(rows[0], tolerance=1e-3)
    assert oracle.check_report([loosened] + rows[1:], scenarios)[:2] == (n, 1)
    extra = oracle.Row("nowhere", "nothing", 0.0, 0.0, 0.0, True)
    assert oracle.check_report(rows + [extra], scenarios)[:2] == (n + 1, 1)
    assert oracle.check_report(None, scenarios)[:2] == (n, n)


def test_csv_and_json_reports_parse_to_the_same_rows():
    sys.path.insert(0, SRC)
    from groupoid_measures import reports
    report = reports.Report([reports.CheckRow("s", "weyl", 1.25, 1.25000001, 1e-6),
                             reports.CheckRow("s", "betti_zero", 2, 2, 0.0, True)])
    assert oracle.parse_csv(report.to_csv()) == oracle.parse_json(report.to_json())


def test_truths_are_theory_not_output():
    # pair groupoids are connected; a Z2 action with one swap on 3 points
    # has two orbits, with two swaps on 5 points three; a group has one
    assert workloads.betti_expected({"kind": "pair", "n": 4}, 2) == [1, 0, 0]
    assert workloads.betti_expected(
        {"kind": "z2_action", "points": 3, "swaps": [[0, 1]]}, 1) == [2, 0]
    assert workloads.betti_expected(
        {"kind": "z2_action", "points": 5, "swaps": [[0, 3], [1, 4]]}, 0) == [3]
    assert workloads.betti_expected({"kind": "cyclic", "n": 3}, 1) == [1, 0]
    # the erf closed form against a fine composite Simpson rule
    n = 20000
    h = 1.0 / n
    g = [(1 + i * h) * math.exp(-30 * (i * h - 0.5) ** 2) for i in range(n + 1)]
    simpson = h / 3 * (g[0] + g[-1] + 4 * sum(g[1:-1:2]) + 2 * sum(g[2:-1:2]))
    value, bound = workloads.rotation_weyl_lhs()
    assert value == pytest.approx(2 * math.pi * simpson, rel=1e-12)
    assert 0 < bound < 1e-3


def test_seed_moves_inputs_but_not_sizes():
    build = workloads.many_small
    a, b, again = build(1), build(2), build(1)
    assert [s.doc for s in a] == [s.doc for s in again]
    assert [s.doc for s in a] != [s.doc for s in b]
    assert [len(s.expects) for s in a] == [len(s.expects) for s in b]
    assert [s.name for s in a] == [s.name for s in b]


def test_self_times_and_unattributed_add_up_to_the_pass(monkeypatch):
    clock = [0]
    monkeypatch.setattr(tracer, "_now", lambda: clock[0])
    t = tracer.Tracer()

    def tick(ns):
        clock[0] += ns

    def leaf(x):
        tick(20)
        return x

    traced_leaf = t.wrap(leaf, "finite.linalg_q.rank",
                         after=lambda args, kwargs, result: tick(10))

    def outer(x):
        tick(10)
        return traced_leaf(x) + traced_leaf(x)

    traced_outer = t.wrap(outer, "finite.homology.homology")
    assert traced_outer(2) == 4
    tick(10)
    layers = t.aggregate(clock[0])
    total = sum(v for k, v in layers.items() if k.endswith(".self_s"))
    assert total + layers["trace.unattributed_s"] == pytest.approx(80e-9, abs=1e-18)
    assert layers["finite.linalg_q.rank.calls"] == 2
    assert layers["finite.homology.homology.calls"] == 1
    assert layers["finite.linalg_q.rank.self_s"] == pytest.approx(40e-9)
    # the counter hooks run inside homology's span but are bookkeeping
    assert layers["finite.homology.homology.self_s"] == pytest.approx(10e-9)
    assert layers["trace.unattributed_s"] == pytest.approx(30e-9)


def test_per_layer_metrics_match_the_benchmark_file():
    with open(os.path.join(os.path.dirname(HERE), "BENCHMARK.json"), encoding="utf-8") as fh:
        listed = json.load(fh)["per_layer"]
    assert [(m["name"], m["unit"]) for m in listed] == list(tracer.PER_LAYER)
    names = [name for name, _ in tracer.PER_LAYER]
    assert len(names) == len(set(names)) <= 128
    assert all(len(n) <= 64 for n in names)


def test_a_missing_layer_function_fails_the_trace(monkeypatch):
    sys.path.insert(0, SRC)
    from groupoid_measures.smooth import transverse
    # the first function install wraps, so nothing is rebound before it fails
    monkeypatch.delattr(transverse, "s_fiber_integrate")
    with pytest.raises(AttributeError, match="s_fiber_integrate"):
        tracer.install(tracer.Tracer())
