"""What the smooth engine keeps alive: the scenario context drops each
grid-sized memo at its last planned read, every memo is still computed once,
and the rotation and exactness checks peak within a bound per grid node."""

import dataclasses
import random
import tracemalloc
from collections import Counter

import numpy as np
import pytest

from groupoid_measures import checks, read_scenario, run_scenario
from groupoid_measures.checks import REGISTRY, ScenarioContext, read_model
from groupoid_measures.cli import bundled_scenarios, load_scenario
from groupoid_measures.finite import coinvariants, unit_groupoid
from groupoid_measures.smooth import (
    ArrowFunction,
    RotationPlaneModel,
    SeparableField,
    antipodal_circle_model,
    fiber_volumes,
    mirror_interval_model,
    s_fiber_integrate,
    weyl_check,
)
from groupoid_measures.smooth.transverse import field_values


def rotation_weyl(n: int | None = None) -> dict:
    """The bundled rotation_weyl document, on an n x n grid if n is given."""
    path = next(p for p in bundled_scenarios() if p.endswith("rotation_weyl.json"))
    doc = load_scenario(path)
    if n is not None:
        doc["model"]["params"].update(n_r=n, n_phi=n)
        for check in doc["checks"]:
            if "node" in check.get("params", {}):
                check["params"]["node"] = [n // 2, 0]
    return doc


def memo_keys(ctx) -> set:
    return {key for key in ctx._cache if isinstance(key, tuple) and key[0] in ("field", "cutoff")}


def run_checks(doc, after=None):
    """The rows of a document run check by check in one planned context, as
    run_scenario does; ``after(name, ctx)`` is called after each check."""
    context, plan = read_scenario(doc)
    ctx = ScenarioContext(*context, plan)
    rows = []
    for check, tol, values in plan:
        rows += check.rows(ctx.name, check.runner(ctx, tol, **values), tol)
        if after is not None:
            after(check.name, ctx)
    return rows


def counting(monkeypatch):
    """The expressions checks.compile_field compiles and the seeds whose
    cut-offs checks.cutoff_construct builds, in call order."""
    compiled, built = [], []
    compile_field, cutoff_construct = checks.compile_field, checks.cutoff_construct

    def count_compile(expr, ndim):
        compiled.append(expr)
        return compile_field(expr, ndim)

    def count_cutoff(model, rho, phi):
        built.append(float(phi.flat[-1]))
        return cutoff_construct(model, rho, phi)

    monkeypatch.setattr(checks, "compile_field", count_compile)
    monkeypatch.setattr(checks, "cutoff_construct", count_cutoff)
    return compiled, built


# ---------------------------------------------------------------------------
# the rotation checks per grid node

def traced_checks(doc) -> tuple[dict, dict]:
    """Run a document as run_scenario does, and give each check's traced peak
    and what is held after it, both over the start of the check."""
    context, plan = read_scenario(doc)
    peaks, held = {}, {}

    def traced(check):
        def runner(ctx, tol, **values):
            tracemalloc.reset_peak()
            out = check.runner(ctx, tol, **values)
            current, peak = tracemalloc.get_traced_memory()
            peaks[check.name], held[check.name] = peak, current
            return out
        return dataclasses.replace(check, runner=runner)

    tracemalloc.start()
    try:
        rows = run_scenario((context, [(traced(c), tol, v) for c, tol, v in plan]))
    finally:
        tracemalloc.stop()
    assert all(row.passed for row in rows)
    assert len(peaks) == len(plan)
    return peaks, held


def test_rotation_weyl_checks_peak_within_32_bytes_per_node():
    # bytes per node at 256 x 256: 67.6 at most while every memo lived until
    # the scenario ended, 51.6 while the density and the grid weights were
    # full arrays, 27.7 with them stored along the axes they vary on
    nodes = 256 * 256
    peaks, held = traced_checks(rotation_weyl())
    assert max(peaks.values()) <= 32 * nodes, peaks
    # what the context holds between checks: the density and the grid weights
    # are one column each (24 bytes per node as full arrays), 2.6 all told
    assert held["weinstein_two_ways"] <= 4 * nodes and \
        held["cutoff_saturation_error"] <= 4 * nodes, held


def test_submersion_exactness_checks_peak_within_32_bytes_per_node():
    # bytes per node on the 9 x 8193 grid: 35.7 while the exactness probe made
    # a grid-sized |u| for its maximum and its support, 28.8 without it
    path = next(p for p in bundled_scenarios() if p.endswith("submersion_exactness.json"))
    peaks, _ = traced_checks(load_scenario(path))
    assert max(peaks.values()) <= 32 * 9 * 8193, peaks


# ---------------------------------------------------------------------------
# each memo once, and dropped at its last planned read

def test_each_cutoff_and_field_sample_is_computed_once_per_scenario(monkeypatch):
    compiled, built = counting(monkeypatch)
    doc = rotation_weyl(16)
    phi = doc["checks"][5]["params"]["phi"]
    f, phi2 = (doc["checks"][7]["params"][k] for k in ("f", "phi2"))
    held = {}
    rows = run_checks(doc, lambda name, ctx: held.setdefault(name, memo_keys(ctx)))
    assert len(rows) == 14
    fields = [e for e in compiled if e in (phi, f, phi2, "exp(-1000*(r-1.5)**2)")]
    assert fields == [phi, f, phi2, "exp(-1000*(r-1.5)**2)"]
    assert len(built) == 3  # phi, phi2 and the saturating seed, which raises
    # what each check leaves held: only memos that a later check reads
    assert held["cutoff_normalization"] == {("cutoff", phi)}
    assert held["weyl"] == {("cutoff", phi), ("field", f)}
    assert held["weyl_seed_independence"] == {("cutoff", phi)}
    assert held["weinstein_two_ways"] == held["cutoff_saturation_error"] == set()


def planless_rows(scenario) -> tuple[list, ScenarioContext]:
    """The rows of a scenario from ``read_scenario`` run in a context built
    without its plan, and that context."""
    context, plan = scenario
    planless = ScenarioContext(*context)
    rows = [row for check, tol, values in plan
            for row in check.rows(planless.name, check.runner(planless, tol, **values), tol)]
    return rows, planless


def test_a_context_without_a_plan_gives_the_planned_rows_and_holds_no_memo():
    doc = rotation_weyl(16)
    rows, planless = planless_rows(read_scenario(doc))
    assert run_checks(doc) == rows
    # no read is counted, so no cut-off and no field sample is kept
    assert memo_keys(planless) == set()


@pytest.mark.parametrize("order", ["f_first", "seed_first"])
def test_one_expression_as_f_and_as_a_seed_is_sampled_once(monkeypatch, order):
    compiled, built = counting(monkeypatch)
    x, y = "1.2 + 0.5*cos(phi) + 0*r", "1 + 0.25*r"
    entries = [{"name": "weyl", "params": {"f": x, "phi": y}},
               {"name": "cutoff_normalization", "params": {"phi": x}},
               {"name": "weyl", "params": {"f": x, "phi": x}}]
    if order == "seed_first":
        entries = entries[1:] + entries[:1]
    doc = {"name": "x", "engine": "smooth",
           "model": {"kind": "rotation2d", "params": {"n_r": 6, "n_phi": 16}},
           "checks": entries}
    held = []
    rows = run_checks(doc, lambda name, ctx: held.append(memo_keys(ctx)))
    assert all(row.passed for row in rows)
    assert sorted(e for e in compiled if e in (x, y)) == sorted([x, y])
    assert len(built) == 2
    assert held[-1] == set()
    if order == "f_first":
        # f = x is read again by the last check, its cut-off by the second
        assert held[0] == {("field", x)}
        assert held[1] == {("field", x), ("cutoff", x)}


def test_a_read_the_plan_does_not_count_keeps_nothing(monkeypatch):
    compiled, _ = counting(monkeypatch)
    model = read_model("smooth", {"kind": "rotation2d", "params": {"n_r": 4, "n_phi": 8}})
    ctx = ScenarioContext("x", model, 0)
    first = ctx.field("1 + r")
    assert np.array_equal(ctx.field("1 + r"), first) and not first.flags.writeable
    assert compiled == ["1 + r", "1 + r"] and memo_keys(ctx) == set()


def test_stokes_order_builds_its_resolutions_without_a_context(monkeypatch):
    contexts = []
    init = ScenarioContext.__init__

    def recording(self, *args, **kwargs):
        init(self, *args, **kwargs)
        contexts.append(self)

    monkeypatch.setattr(ScenarioContext, "__init__", recording)
    doc = {"name": "x", "engine": "smooth",
           "model": {"kind": "foliation", "n_leaf": 9, "n_transverse": 5},
           "checks": [{"name": "stokes_order"}, {"name": "stokes_closed"}]}
    scenario = read_scenario(doc)
    rows = run_scenario(scenario)
    assert [r.check for r in rows] == ["stokes_order", "stokes_closed"]
    # the scenario's own context is the only one, with no memo in its plan;
    # a context without a plan gives the same rows and holds no memo either
    assert len(contexts) == 1 and contexts[0]._reads == {}
    planless, ctx = planless_rows(scenario)
    assert planless == rows and memo_keys(ctx) == set()


def test_every_check_declares_the_memos_it_reads(monkeypatch):
    # a read the plan does not count would be computed again, so count the
    # memo reads of each check on its own and compare with its declaration
    reads = []
    for name in ("field", "cutoff"):
        method = getattr(ScenarioContext, name)
        monkeypatch.setattr(ScenarioContext, name, lambda self, expr, *rest, _m=method, _n=name:
                            (reads.append((_n, expr)), _m(self, expr, *rest))[1])
    model = {"kind": "rotation2d", "params": {"n_r": 6, "n_phi": 16}}
    seeds = {"f": "1 + 0*r", "phi": "2 + 0*r", "phi1": "1.5 + 0*r", "phi2": "3 + 0*r",
             "tau": "1 + 0*r"}
    for name, check in REGISTRY.items():
        if check.model != "proper_action":
            continue
        params = {k: v for k, v in seeds.items() if k in check.params}
        if name == "weinstein_expected":
            params["expected"] = "3*pi"
        context, plan = read_scenario({"name": "x", "engine": "smooth", "model": model,
                                       "checks": [{"name": name, "params": params}]})
        reads.clear()
        run_scenario((context, plan))
        # the context counts a cut-off's build as one more read of its seed's sample
        assert sorted(reads) == sorted(ScenarioContext(*context, plan)._reads.elements()), name


# ---------------------------------------------------------------------------
# the kernels that shed their grid temporaries give the same bits

def reference_slice(u: ArrowFunction, j: int) -> np.ndarray:
    """x -> u(g_j, x) summed from a zero grid array, term by term."""
    acc = np.zeros(u.model.grid.shape)
    for a, b, e in u.terms:
        b = field_values(b)
        acc += a[j] * (u.model.pull(j, b) if e else b)
    return acc


MODELS = [lambda: RotationPlaneModel(n_r=5, n_phi=8, r_lo=1.0, r_hi=2.0),
          lambda: antipodal_circle_model(8), lambda: mirror_interval_model(7, 1.0)]


@pytest.mark.parametrize("make", MODELS, ids=["rotation2d", "antipodal", "mirror"])
def test_slice_gives_the_bits_of_a_sum_from_zero_and_writes_no_input(make):
    model = make()
    rng = np.random.default_rng(7)
    shape, n = model.grid.shape, model.group_size
    plain = rng.uniform(-1, 1, size=shape)
    zeros = np.zeros(shape)
    for array in (plain, zeros):
        array.setflags(write=False)  # a write into the caller's array raises
    negative = np.full(n, -0.0)
    u = ArrowFunction.random(model, random.Random(7))
    functions = [
        u, u.inverted(),
        ArrowFunction(model, [(np.ones(n), plain, 1)]),
        ArrowFunction(model, [(a, plain, 0) for a in rng.uniform(-1, 1, size=(2, n))]),
        # terms that sum to zeros of both signs
        ArrowFunction(model, [(negative, zeros, 0), (negative, zeros, 1)]),
        ArrowFunction(model, [(negative, zeros, 1)] + u.terms),
        ArrowFunction(model, [(negative, SeparableField(model.grid, [
            np.zeros(k) for k in shape]), 0)]),
        ArrowFunction(model, []),
    ]
    for w in functions:
        for j in range(n):
            got, want = w.slice(j), reference_slice(w, j)
            assert got.shape == shape and got.tobytes() == want.tobytes()
    assert not np.signbit(ArrowFunction(model, [(negative, zeros, 0)]).slice(0)).any()


@pytest.mark.parametrize("make", MODELS, ids=["rotation2d", "antipodal", "mirror"])
def test_fiber_volumes_of_a_broadcast_one_equal_those_of_a_grid_of_ones(make):
    model = make()
    rho = 0.5 + np.random.default_rng(3).uniform(size=model.grid.shape)
    grid_ones = ArrowFunction(model, [(np.ones(model.group_size), np.ones(model.grid.shape), 1)])
    assert fiber_volumes(model, rho).tobytes() == \
        s_fiber_integrate(model, rho, grid_ones).tobytes()


def test_weyl_seed_independence_gives_the_orbit_sides_of_two_weyl_checks():
    doc = rotation_weyl(16)
    ctx = ScenarioContext(*read_scenario(doc)[0])
    params = doc["checks"][7]["params"]
    got = REGISTRY["weyl_seed_independence"].runner(ctx, 2e-6, **params)
    model, sigma = ctx.model(), ctx.sigma()
    values = ctx.field(params["f"])
    assert got == tuple(weyl_check(model, sigma, values, cutoff=ctx.cutoff(params[k], k))[1]
                        for k in ("phi1", "phi2"))


# ---------------------------------------------------------------------------
# the finite dimension rows build no basis

def test_dimension_rows_on_unit_65536_build_no_basis(monkeypatch):
    # the orbits x objects basis of coinvariants is 2**32 Fractions here; the
    # rows read the dimension alone, and a row that asked for a basis fails
    # here before it allocates one
    for name in ("coinvariants", "transverse_measure_cone"):
        monkeypatch.setattr(checks.finite, name, lambda g, _name=name: pytest.fail(_name))
    ctx = ScenarioContext("u", read_model("finite", {"kind": "unit", "n": 65536}), 0)
    checks.finite.orbits(ctx.model())  # the groupoid's own orbit cache, built once
    tracemalloc.start()
    try:
        results = [REGISTRY[name].runner(ctx, 0.0)
                   for name in ("coinvariants_dimension", "cone_dimension")]
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert results == [(65536, 65536)] * 2
    assert peak < 8 * 2 ** 20
    # the library keeps its (dimension, basis) return
    assert coinvariants(unit_groupoid(3)) == (3, [[1, 0, 0], [0, 1, 0], [0, 0, 1]])


def test_the_plan_counts_every_memo_read_of_the_rotation_document():
    doc = rotation_weyl()
    _, plan = read_scenario(doc)
    reads = Counter(key for check, _, values in plan for key in check.memos(values))
    params = [check.get("params", {}) for check in doc["checks"]]
    assert reads == {("cutoff", params[5]["phi"]): 4, ("field", params[6]["f"]): 2,
                     ("cutoff", params[7]["phi2"]): 1, ("cutoff", params[13]["phi"]): 1}
