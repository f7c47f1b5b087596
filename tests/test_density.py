"""Quadrature grids, their product weights and the canonical integral."""

import sys

import numpy as np
import pytest

from groupoid_measures.density import Axis, Grid, integrate
from groupoid_measures.expressions import ScenarioError
from groupoid_measures.smooth import FoliatedGrid
from groupoid_measures.smooth.models import TrivialActionModel
from groupoid_measures.smooth.transverse import pair_with_base_density


def interval(n, lo, hi):
    return Grid([Axis(n, lo, hi)])


def test_grid_weights_sum_to_volume():
    g = Grid([Axis(17, 0.0, 2.0), Axis(9, -1.0, 3.0, periodic=True)])
    assert np.all(g.weights > 0)
    assert abs(float(g.weights.sum()) - 8.0) <= 1e-12 * 8.0


@pytest.mark.parametrize("axes", [
    [Axis(9, -1.0, 3.0)],
    [Axis(17, 0.0, 2.0), Axis(9, -1.0, 3.0, periodic=True)],
    [Axis(5, 0.0, 1.0), Axis(4, 0.0, 2 * np.pi, periodic=True), Axis(3, 1.0, 2.0)],
])
def test_grid_weights_are_the_axis_product_computed_once_and_read_only(axes):
    g = Grid(axes)
    product = g.axis_weight(0)
    for axis in range(1, g.ndim):
        product = product * g.axis_weight(axis)
    assert g.weights.shape == g.shape
    assert np.array_equal(g.weights, product)
    assert g.weights is g.weights
    with pytest.raises(ValueError, match="read-only"):
        g.weights[(0,) * g.ndim] = 7.0


def test_pairings_read_the_grid_weights():
    # doubling the cached array doubles each pairing, so the pairings read it
    model = TrivialActionModel(Grid([Axis(9, 0.0, 1.0), Axis(5, 0.0, 2.0)]))
    fol = FoliatedGrid(Grid([Axis(7, 0.0, 1.0), Axis(5, 0.0, 2.0)]))
    rng = np.random.default_rng(5)
    for grid, pair in ((model.grid,
                        lambda f, g: pair_with_base_density(model, f, g)),
                       (fol.grid, fol.evaluate)):
        f, g = rng.uniform(0.5, 1.5, grid.shape), rng.standard_normal(grid.shape)
        before = pair(f, g)
        grid.weights = 2 * grid.weights
        assert pair(f, g) == 2 * before


def test_integrate_constant_on_unit_interval_is_exact():
    g = interval(64, 0.0, 1.0)
    assert integrate(g, np.ones(g.shape)) == 1.0


def test_integrate_rejects_values_of_another_shape():
    g = Grid([Axis(5, 0.0, 1.0), Axis(3, 0.0, 1.0)])
    for shape in ((3, 5), (5,), (5, 3, 1)):
        with pytest.raises(ValueError, match="does not match"):
            integrate(g, np.ones(shape))


def test_integrate_gaussian_against_closed_form():
    g = interval(256, -8.0, 8.0)
    exact = np.sqrt(2 * np.pi)
    assert abs(integrate(g, np.exp(-g.nodes(0) ** 2 / 2)) - exact) <= 1e-6 * exact


def assert_linear_and_positive(mu, shape, rng, samples=4, tol=1e-9):
    """Spot-checks a functional on random node arrays of ``shape``:
    mu(c f + g) = c mu(f) + mu(g) to ``tol`` relative, and mu(|f|) >= 0."""
    for _ in range(samples):
        f = rng.standard_normal(shape)
        g = rng.standard_normal(shape)
        c = float(rng.uniform(-2, 2))
        rhs = c * mu(f) + mu(g)
        assert abs(mu(c * f + g) - rhs) <= tol * max(1.0, abs(rhs))
    for _ in range(samples):
        f = np.abs(rng.standard_normal(shape))
        assert mu(f) >= -1e-12 * float(np.max(f) + 1.0)


def test_integrate_is_linear_and_monotone():
    g = interval(41, 0.0, 2.0)
    rng = np.random.default_rng(0)
    a = rng.uniform(0.0, 1.0, g.shape)
    b = a + rng.uniform(0.0, 0.5, g.shape)
    assert integrate(g, a) <= integrate(g, b)
    lin = integrate(g, 2.5 * a + b)
    assert abs(lin - (2.5 * integrate(g, a) + integrate(g, b))) <= 1e-12 * abs(lin)
    plane = Grid([Axis(13, 0.0, 1.0), Axis(11, 0.0, 2 * np.pi, periodic=True)])
    assert_linear_and_positive(lambda f: integrate(plane, f), plane.shape,
                               np.random.default_rng(3))


def test_integrate_sums_the_highest_axis_first():
    g = Grid([Axis(13, 0.0, 1.0), Axis(17, 0.0, 1.5),
              Axis(11, 0.0, 2 * np.pi, periodic=True)])
    values = np.random.default_rng(42).standard_normal(g.shape)
    acc = values
    for axis in (2, 1, 0):
        acc = (acc * g.axis_weight(axis, acc.ndim)).sum(axis=axis)
    assert integrate(g, values) == float(acc)


def test_refinement_order_on_gaussian():
    exact = np.sqrt(2 * np.pi)
    errors = []
    for n in (16, 31):
        g = interval(n, -8.0, 8.0)
        errors.append(abs(integrate(g, np.exp(-g.nodes(0) ** 2 / 2)) - exact))
    order = np.log2(errors[0] / max(errors[1], 1e-300))
    assert order >= 1.8


@pytest.mark.parametrize("axis", [
    (17, 0.0, 2.225073858507e-311), (1001, 0.0, 1e-306), (2, 0.0, 1e-308),
    (4, 0.0, 8e-308, True),
])
def test_an_axis_with_a_subnormal_spacing_is_an_input_error(axis):
    with pytest.raises(ScenarioError, match="below the smallest normal float"):
        Axis(*axis)


def test_the_smallest_normal_spacing_builds_an_exact_rule():
    tiny = sys.float_info.min
    for ax in (Axis(2, 0.0, tiny), Axis(3, 0.0, 2 * tiny), Axis(4, 0.0, 4 * tiny, True)):
        assert ax.spacing == tiny
        assert integrate(Grid([ax]), np.ones(ax.n)) == ax.length


def _reference_nodes(ax):
    if ax.periodic:
        return ax.lo + ax.length * np.arange(ax.n) / ax.n
    return np.linspace(ax.lo, ax.hi, ax.n)


def _reference_weights(ax):
    if ax.periodic:
        return np.full(ax.n, ax.length / ax.n)
    h = ax.length / (ax.n - 1)
    w = np.full(ax.n, h)
    w[0] = w[-1] = h / 2
    return w


@pytest.mark.parametrize("ax", [
    Axis(2, 0.0, 1.0), Axis(9, -1.0, 3.0), Axis(65, 1.0, 2.0),
    Axis(1, 0.0, 2 * np.pi, periodic=True), Axis(16, -1.0, 3.0, periodic=True),
    Axis(33, 0.0, 2 * np.pi, periodic=True),
])
def test_axis_arrays_are_the_rule_formulas_computed_once_and_read_only(ax):
    assert np.array_equal(ax.nodes(), _reference_nodes(ax))
    assert np.array_equal(ax.weights(), _reference_weights(ax))
    assert ax.nodes() is ax.nodes() and ax.weights() is ax.weights()
    for values in (ax.nodes(), ax.weights()):
        with pytest.raises(ValueError, match="read-only"):
            values[0] = 7.0
        with pytest.raises(ValueError, match="read-only"):
            values *= 2.0
    # the cached arrays leave the frozen dataclass's equality alone
    assert ax == Axis(ax.n, ax.lo, ax.hi, ax.periodic)
