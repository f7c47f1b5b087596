"""Quadrature grids, density fields, measures, pushforwards, bundles."""

import numpy as np
import pytest

from groupoid_measures.density import (
    Axis,
    CircleBundle,
    DensityField,
    Grid,
    GridMap,
    GroupModel,
    InvarianceError,
    MeasureFunctional,
    circle,
    fiber_integrate,
    field_from_csv,
    field_to_csv,
    integrate,
    interval,
    invariant_decompose,
    pushforward,
)


def test_grid_weights_sum_to_volume():
    g = Grid([Axis(17, 0.0, 2.0), Axis(9, -1.0, 3.0, periodic=True)])
    w = g.axis_weight(0, 2) * g.axis_weight(1, 2)
    assert np.all(w > 0)
    assert abs(float(w.sum()) - 8.0) <= 1e-12 * 8.0


def test_integrate_constant_on_unit_interval_is_exact():
    one = DensityField.constant(interval(64, 0.0, 1.0), 1.0)
    assert integrate(one) == 1.0


def test_integrate_gaussian_against_closed_form():
    g = interval(256, -8.0, 8.0)
    rho = DensityField.from_function(g, lambda x: np.exp(-x ** 2 / 2))
    exact = np.sqrt(2 * np.pi)
    assert abs(integrate(rho) - exact) <= 1e-6 * exact


def test_circle_haar_mass_is_one():
    model = GroupModel("circle", n=96)
    assert abs(model.total_mass() - 1.0) <= 1e-12
    assert abs(GroupModel("torus2", n=24).total_mass() - 1.0) <= 1e-12
    assert GroupModel("finite", table=[[0, 1], [1, 0]]).total_mass() == 1.0


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


def test_pushforward_identity_and_point():
    g = Grid([Axis(9, 0.0, 1.0), Axis(9, 0.0, 1.0)])
    mu = MeasureFunctional.from_density(DensityField.from_function(
        g, lambda x, y: 1.0 + x + y))
    rng = np.random.default_rng(1)
    f = rng.standard_normal(g.shape)
    assert pushforward(GridMap.identity(g), mu)(f) == mu(f)

    point = Grid([Axis(1, 0.0, 1.0, periodic=True)])
    atom = pushforward(GridMap.to_point(g, point), mu)
    assert atom(np.ones(point.shape)) == mu(np.ones(g.shape))


def test_pushforward_functoriality_on_cube():
    g3 = Grid([Axis(8, 0.0, 1.0), Axis(7, 0.0, 1.0), Axis(6, 0.0, 1.0)])
    mu = MeasureFunctional.from_density(DensityField.from_function(
        g3, lambda x, y, z: 1.0 + x * y + z))
    pi32 = GridMap.axis_projection(g3, [0, 1])
    pi21 = GridMap.axis_projection(g3.subgrid([0, 1]), [0])
    pi31 = GridMap.axis_projection(g3, [0])
    assert np.array_equal(pi21.compose(pi32).index, pi31.index)
    f = np.random.default_rng(2).standard_normal(g3.subgrid([0]).shape)
    two_step = pushforward(pi21, pushforward(pi32, mu))(f)
    one_step = pushforward(pi31, mu)(f)
    assert abs(two_step - one_step) <= 1e-12 * max(1.0, abs(one_step))


def test_measure_functional_checks():
    g = interval(33, 0.0, 1.0)
    mu = MeasureFunctional.from_density(DensityField.constant(g, 2.0))
    rng = np.random.default_rng(3)
    mu.check_linearity(rng)
    mu.check_positivity(rng)
    with pytest.raises(ValueError, match="negative"):
        MeasureFunctional.from_density(DensityField.constant(g, -1.0))


def test_invariant_decompose_round_trip():
    total = Grid([Axis(64, 0.0, 2 * np.pi, periodic=True), Axis(17, 0.0, 1.0)])
    bundle = CircleBundle(total)
    base_field = DensityField.from_function(total.subgrid([1]),
                                            lambda b: 1.0 + b ** 2)
    rho = bundle.haar_times(base_field)
    recovered = invariant_decompose(bundle, rho)
    assert np.max(np.abs(recovered.values - base_field.values)) <= 1e-12

    flat = invariant_decompose(bundle, bundle.haar_times(
        DensityField.constant(total.subgrid([1]), 1.0)))
    assert np.max(np.abs(flat.values - 1.0)) <= 1e-12


def test_invariant_decompose_rejects_angular_dependence():
    total = Grid([Axis(64, 0.0, 2 * np.pi, periodic=True), Axis(9, 0.0, 1.0)])
    bundle = CircleBundle(total)
    rho = DensityField.from_function(total, lambda t, b: 1.0 + 0.3 * np.cos(t))
    with pytest.raises(InvarianceError) as err:
        invariant_decompose(bundle, rho)
    assert err.value.defect > 1e-3


def test_field_csv_round_trip():
    g = Grid([Axis(5, 0.0, 1.0), Axis(4, 0.0, 2 * np.pi, periodic=True)])
    rho = DensityField.from_function(g, lambda x, t: x + np.cos(t))
    text = field_to_csv(rho)
    assert text.splitlines()[0] == "axis0,axis1,value"
    back = field_from_csv(g, text)
    assert np.array_equal(back.values, rho.values)


def test_grid_json_round_trip():
    g = Grid([Axis(5, -1.0, 1.0), Axis(8, 0.0, 2 * np.pi, periodic=True)])
    g2 = Grid.from_json(g.to_json())
    assert g2.shape == g.shape
    assert [a.periodic for a in g2.axes] == [False, True]
    assert circle(8).axes[0].periodic


def test_pushforward_nearest_cell_assignment():
    # 1/90 spacing has no midpoint ties against the 1/10 target nodes
    fine = interval(91, 0.0, 1.0)
    coarse = interval(11, 0.0, 1.0)
    pi = GridMap.from_coordinates(fine, coarse, lambda x: x)
    mu = MeasureFunctional.from_density(DensityField.constant(fine, 1.0))
    pushed = pushforward(pi, mu)
    assert abs(pushed.total_mass() - 1.0) <= 1e-12
    f = coarse.nodes(0) ** 2
    direct = mu((np.round(fine.nodes(0) * 10) / 10) ** 2)
    assert abs(pushed(f) - direct) <= 1e-12


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
