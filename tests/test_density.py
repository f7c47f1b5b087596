"""Quadrature grids, density fields and measures."""

import numpy as np
import pytest

from groupoid_measures.density import (
    Axis,
    DensityField,
    Grid,
    MeasureFunctional,
    fiber_integrate,
    integrate,
    interval,
)
from groupoid_measures.expressions import ScenarioError


def test_grid_weights_sum_to_volume():
    g = Grid([Axis(17, 0.0, 2.0), Axis(9, -1.0, 3.0, periodic=True)])
    w = g.axis_weight(0, 2) * g.axis_weight(1, 2)
    assert np.all(w > 0)
    assert abs(float(w.sum()) - 8.0) <= 1e-12 * 8.0


def test_integrate_constant_on_unit_interval_is_exact():
    one = DensityField.constant(interval(64, 0.0, 1.0), 1.0)
    assert integrate(one) == 1.0


def test_integrate_rejects_a_non_finite_field_as_input_error():
    # a ScenarioError is a ValueError, so library callers keep catching it
    with np.errstate(divide="ignore"):
        field = DensityField.from_function(interval(9, 1.0, 2.0), lambda t: np.log(t - 1))
    with pytest.raises(ScenarioError, match="non-finite"):
        integrate(field)


def test_integrate_gaussian_against_closed_form():
    g = interval(256, -8.0, 8.0)
    rho = DensityField.from_function(g, lambda x: np.exp(-x ** 2 / 2))
    exact = np.sqrt(2 * np.pi)
    assert abs(integrate(rho) - exact) <= 1e-6 * exact


def test_integrate_is_linear_and_monotone():
    g = interval(41, 0.0, 2.0)
    rng = np.random.default_rng(0)
    a = DensityField(g, rng.uniform(0.0, 1.0, g.shape))
    b = DensityField(g, a.values + rng.uniform(0.0, 0.5, g.shape))
    assert integrate(a) <= integrate(b)
    lin = integrate(DensityField(g, 2.5 * a.values + b.values))
    assert abs(lin - (2.5 * integrate(a) + integrate(b))) <= 1e-12 * abs(lin)


def test_refinement_order_on_gaussian():
    exact = np.sqrt(2 * np.pi)
    errors = []
    for n in (16, 31):
        g = interval(n, -8.0, 8.0)
        rho = DensityField.from_function(g, lambda x: np.exp(-x ** 2 / 2))
        errors.append(abs(integrate(rho) - exact))
    order = np.log2(errors[0] / max(errors[1], 1e-300))
    assert order >= 1.8


def test_fiber_integrate_separable_product():
    g = Grid([Axis(21, 0.0, 1.0), Axis(33, 0.0, 2.0)])
    fx = lambda x: 1.0 + x ** 2
    gy = lambda y: np.exp(-y)
    rho = DensityField.from_function(g, lambda x, y: fx(x) * gy(y))
    reduced = fiber_integrate(rho, [1])
    gy_total = integrate(DensityField.from_function(g.subgrid([1]), gy))
    expected = fx(g.nodes(0)) * gy_total
    assert np.max(np.abs(reduced.values - expected)) <= 1e-12 * np.max(np.abs(expected))


def test_fiber_integrate_constant_on_square():
    g = Grid([Axis(16, 0.0, 1.0), Axis(16, 0.0, 1.0)])
    reduced = fiber_integrate(DensityField.constant(g, 1.0), [1])
    assert np.allclose(reduced.values, 1.0, rtol=0, atol=1e-14)


def test_fubini_regrouping():
    g = Grid([Axis(13, 0.0, 1.0), Axis(17, 0.0, 1.5), Axis(11, 0.0, 2 * np.pi,
                                                           periodic=True)])
    rng = np.random.default_rng(42)
    rho = DensityField(g, rng.standard_normal(g.shape))
    # trailing fiber axes regroup the same arithmetic: bit-exact
    assert integrate(fiber_integrate(rho, [1, 2])) == integrate(rho)
    assert integrate(fiber_integrate(rho, [2])) == integrate(rho)
    # arbitrary axis subsets agree to 1e-12 relative
    total = integrate(rho)
    for axes in ([0], [1], [0, 2]):
        alt = integrate(fiber_integrate(rho, axes))
        assert abs(alt - total) <= 1e-12 * max(1.0, abs(total))


def assert_linear_and_positive(mu, rng, samples=4, tol=1e-9):
    """Spot-checks a ``MeasureFunctional`` on random fields of its grid:
    mu(c f + g) = c mu(f) + mu(g) to ``tol`` relative, and mu(|f|) >= 0."""
    for _ in range(samples):
        f = rng.standard_normal(mu.grid.shape)
        g = rng.standard_normal(mu.grid.shape)
        c = float(rng.uniform(-2, 2))
        rhs = c * mu(f) + mu(g)
        assert abs(mu(c * f + g) - rhs) <= tol * max(1.0, abs(rhs))
    for _ in range(samples):
        f = np.abs(rng.standard_normal(mu.grid.shape))
        assert mu(f) >= -1e-12 * float(np.max(f) + 1.0)


def test_measure_functional_checks():
    g = interval(33, 0.0, 1.0)
    mu = MeasureFunctional.from_density(DensityField.constant(g, 2.0))
    assert_linear_and_positive(mu, np.random.default_rng(3))
    with pytest.raises(ValueError, match="negative"):
        MeasureFunctional.from_density(DensityField.constant(g, -1.0))


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
