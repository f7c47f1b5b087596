"""Field expressions sampled on the open grid, against dense evaluation.

``Grid.meshgrid`` gives each axis's nodes shaped to broadcast against the
grid, and a compiled field broadcasts to the grid's shape only at the end.
Elementwise arithmetic does not depend on where a value sits in an array,
so the samples must equal dense evaluation bit for bit.
"""

import json
import os
import sys

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from groupoid_measures.checks import REGISTRY, ScenarioContext, read_model
from groupoid_measures.cli import bundled_scenarios
from groupoid_measures.density import Axis, Grid
from groupoid_measures.expressions import FIELD, ScenarioError, compile_field

sys.path.insert(0, os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))),
                                "gmbench"))
import workloads  # noqa: E402


def dense_meshgrid(grid):
    """Reference: every node's coordinates as full grid arrays."""
    return np.meshgrid(*[ax.nodes() for ax in grid.axes], indexing="ij")


def assert_open_equals_dense(expr, grid):
    fn = compile_field(expr, grid.ndim)
    open_values, dense_values = fn(*grid.meshgrid()), fn(*dense_meshgrid(grid))
    assert open_values.shape == dense_values.shape == grid.shape
    assert np.array_equal(open_values, dense_values, equal_nan=True)


@pytest.mark.parametrize("axes", [
    [Axis(5, 0.0, 1.0)],
    [Axis(4, 1.0, 2.0), Axis(6, 0.0, 2 * np.pi, periodic=True)],
    [Axis(3, 0.0, 1.0), Axis(1, 0.0, 2 * np.pi, periodic=True), Axis(2, -1.0, 1.0)],
])
def test_meshgrid_is_the_open_grid_of_the_dense_one(axes):
    grid = Grid(axes)
    mesh = grid.meshgrid()
    for axis, coord in enumerate(mesh):
        assert np.array_equal(coord, grid.along(axis, grid.nodes(axis)))
    for coord, dense in zip(np.broadcast_arrays(*mesh), dense_meshgrid(grid)):
        assert np.array_equal(coord, dense)


def scenario_grid(doc):
    """The grid a smooth scenario samples its fields on, or None."""
    if doc["model"].get("kind") == "submersion_probe":
        return None
    return ScenarioContext(doc["name"], read_model(doc["engine"], doc["model"]), 0).model().grid


def scenario_fields():
    """(scenario name, grid, expression) for every field expression a smooth
    scenario of the bundled set or of the many_small workload (seed 1)
    samples, defaults included."""
    docs = []
    for path in bundled_scenarios():
        with open(path, encoding="utf-8") as fh:
            docs.append(json.load(fh))
    docs += [s.doc for s in workloads.many_small(1)]
    out = []
    for doc in docs:
        if doc["engine"] != "smooth" or (grid := scenario_grid(doc)) is None:
            continue
        exprs = {v for k, v in doc["model"].get("sigma", {}).items() if v != "lebesgue"}
        for check in doc["checks"]:
            spec = REGISTRY[check["name"]]
            params = spec.read_params(check.get("params", {}))
            exprs |= {params[k] for k, (kind, _) in spec.params.items()
                      if kind.convert is FIELD.convert}  # memo kinds included
        out += [(doc["name"], grid, expr) for expr in sorted(exprs)]
    return out


SCENARIO_FIELDS = scenario_fields()


def test_every_scenario_field_is_collected():
    exprs = {expr for _, _, expr in SCENARIO_FIELDS}
    assert "exp(-4*(r-1.5)**2)*(1.3+cos(phi))" in exprs  # a rotation_weyl seed
    assert "exp(-4*(x-0.5)**2 - 4*(y-0.5)**2)" in exprs  # a many_small trivial f
    assert len({name for name, _, _ in SCENARIO_FIELDS}) > 100


def test_open_grid_sampling_equals_dense_for_every_scenario_field():
    for _, grid, expr in SCENARIO_FIELDS:
        assert_open_equals_dense(expr, grid)


# elementwise expressions of the coordinates of 1 to 3 axes
LEAVES = [str(v) for v in (0.5, 1.3, 2, -3.25)]
UNARY = ["sin({})", "cos({})", "exp(-({})**2)", "sqrt(abs({}))", "abs({})", "log(1 + abs({}))",
         "-({})"]
BINARY = ["({} + {})", "({} - {})", "({} * {})", "({} / (1.5 + abs({})))", "minimum({}, {})",
          "maximum({}, {})", "where({} > 0.3, {}, 0.7)", "({})**2 * {}"]


def expressions(ndim):
    leaves = st.sampled_from(LEAVES + [f"c{axis}" for axis in range(ndim)])
    return st.recursive(
        leaves,
        lambda sub: st.one_of(
            st.tuples(st.sampled_from(UNARY), sub).map(lambda t: t[0].format(t[1])),
            st.tuples(st.sampled_from(BINARY), sub, sub).map(lambda t: t[0].format(*t[1:]))),
        max_leaves=8)


@settings(max_examples=150, deadline=None)
@given(st.lists(st.integers(1, 40), min_size=1, max_size=3).flatmap(
    lambda sizes: st.tuples(st.just(sizes), expressions(len(sizes)))))
def test_open_grid_sampling_equals_dense_on_random_expressions(case):
    # axis lengths off and on the SIMD widths, so every tail of a ufunc runs
    sizes, expr = case
    grid = Grid([Axis(n, -1.0 - i, 1.5 + i, periodic=True) for i, n in enumerate(sizes)])
    assert_open_equals_dense(expr, grid)


@pytest.mark.parametrize("expr", ["phi[5]", "r[0] + phi", "(r + phi)[1:2]", "[r, phi][0]"])
def test_a_subscript_is_an_input_error(expr):
    with pytest.raises(ScenarioError, match="subscripts are not allowed"):
        compile_field(expr, 2)


def counting_compiles(monkeypatch):
    """The expressions the check catalog compiles, in order."""
    import groupoid_measures.checks as checks
    compiled = []

    def counting(expr, ndim):
        compiled.append(expr)
        return compile_field(expr, ndim)

    monkeypatch.setattr(checks, "compile_field", counting)
    return compiled


ROTATION = read_model("smooth", {"kind": "rotation2d", "params": {"n_r": 8, "n_phi": 16}})


def test_the_field_sampler_samples_each_expression_once(monkeypatch):
    compiled = counting_compiles(monkeypatch)
    ctx = ScenarioContext("t", ROTATION, 0,
                          [(REGISTRY["weyl"], 1e-6, {"f": "r*cos(phi)", "phi": "1 + 0*r"})] * 2)
    f = ctx.field("r*cos(phi)")
    assert not f.flags.writeable and f.shape == (8, 16)
    assert np.array_equal(f, compile_field("r*cos(phi)", 2)(*dense_meshgrid(ctx.model().grid)))
    ctx.field("1 + r")
    assert ctx.field("r*cos(phi)") is f
    assert compiled == ["r*cos(phi)", "1 + r"]


def test_the_weyl_checks_sample_f_once_and_hold_no_seed(monkeypatch):
    compiled = counting_compiles(monkeypatch)
    f, seed1, seed2 = "exp(-(r-1.5)**2)*(1+0.3*cos(phi))", "1 + 0*r", "1.2 + sin(phi)"
    # the two checks, then a third that reads f again
    ctx = ScenarioContext("t", ROTATION, 0, [
        (REGISTRY["weyl"], 1e-6, {"f": f, "phi": seed1}),
        (REGISTRY["weyl_seed_independence"], 2e-6, {"f": f, "phi1": seed1, "phi2": seed2}),
        (REGISTRY["weyl"], 1e-6, {"f": f, "phi": seed2})])
    REGISTRY["weyl"].runner(ctx, 1e-6, f=f, phi=seed1)
    REGISTRY["weyl_seed_independence"].runner(ctx, 2e-6, f=f, phi1=seed1, phi2=seed2)
    assert compiled == [f, seed1, seed2]
    # a seed is read again through its cut-off, so only f is held
    assert [key for key in ctx._cache if key[0] == "field"] == [("field", f)]
