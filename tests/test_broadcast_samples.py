"""Grid samples held as broadcast views give the bits of full arrays.

A density, a field sample and the grid weights are read-only views stored
only along the axes they vary on.  Every kernel that reads a sample must
return the same values, with the same signs of zero, on such a view as on
the full C-ordered array that held the sample before.  That copy is
``np.array(view, order="C")``: a plain ``np.array(view)`` keeps the view's
order, which for a view that varies along the last axis only is Fortran
order, and numpy sums a Fortran array in another order.  A write into a view
must fail loudly rather than change a profile other samples share.
"""

import copy
import random

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from groupoid_measures.checks import ScenarioContext, read_model
from groupoid_measures.density import Axis, Grid
from groupoid_measures.density.grids import stored_part
from groupoid_measures.expressions import ExpressionError, compile_field
from groupoid_measures.smooth import (
    ArrowFunction,
    CyclicAxisModel,
    FiberObstructionError,
    FiniteActionModel,
    FoliatedGrid,
    TransverseDensityData,
    TrivialActionModel,
    antipodal_circle_model,
    averaging,
    cutoff_construct,
    default_test_set,
    exactness_probe,
    invariance_defects,
    mirror_interval_model,
    orbit_density,
    orbit_integrals,
    stokes_defect,
)
from groupoid_measures.smooth.transverse import pair_with_base_density

TWO_PI = 2 * np.pi


def assert_same_values(got, want):
    """The same values with the same signs of zero."""
    got, want = np.asarray(got), np.asarray(want)
    assert got.shape == want.shape
    assert np.array_equal(got, want)
    assert np.array_equal(np.signbit(got), np.signbit(want))


def assert_same_bits(got, want):
    """A kernel's result: the same values, and in the same memory order, since
    a later sum of the array runs in that order."""
    assert_same_values(got, want)
    assert np.asarray(got).flags.c_contiguous == np.asarray(want).flags.c_contiguous


def other_axis(n, periodic):
    return Axis(n, 0.0, TWO_PI, periodic=True) if periodic else Axis(max(n, 2), -1.0, 1.5)


def mirror_2d_model(n0, n1):
    """Z/2 reflecting the first axis of a 2-D grid, x -> -x."""
    grid = Grid([Axis(n0, -1.0, 1.0), Axis(n1, 0.0, 1.0)])
    index = np.arange(n0 * n1).reshape(n0, n1)
    return FiniteActionModel(grid, table=[[0, 1], [1, 0]],
                             node_maps=[index, index[::-1].copy()],
                             point_maps=[lambda x, y: (x, y), lambda x, y: (-x, y)],
                             name="mirror_2d")


@st.composite
def models(draw):
    """Cyclic and finite models on 1-D and 2-D grids with periodic and bounded
    axes; a cyclic axis of up to 40 nodes, so that a sum along it takes both
    numpy's plain loop (under 8 terms) and its unrolled one."""
    kind = draw(st.sampled_from(["cyclic_1d", "cyclic_2d", "antipodal", "mirror",
                                 "trivial", "mirror_2d"]))
    n = draw(st.integers(1, 40))
    m = draw(st.integers(1, 9))
    periodic = draw(st.booleans())
    if kind == "cyclic_1d":
        return CyclicAxisModel(Grid([Axis(n, 0.0, TWO_PI, periodic=True)]), axis=0)
    if kind == "cyclic_2d":
        axis = draw(st.integers(0, 1))
        axes = [other_axis(m, periodic)]
        axes.insert(axis, Axis(n, 0.0, TWO_PI, periodic=True))
        return CyclicAxisModel(Grid(axes), axis=axis)
    if kind == "antipodal":
        return antipodal_circle_model(2 * max(n // 2, 1))
    if kind == "mirror":
        return mirror_interval_model(max(n, 2), 1.0)
    if kind == "trivial":
        axes = [other_axis(n, periodic)]
        if draw(st.booleans()):
            axes.append(other_axis(m, not periodic))
        return TrivialActionModel(Grid(axes))
    return mirror_2d_model(max(m, 2), max(n // 4, 2))


@st.composite
def profiles(draw, shape, kind="any"):
    """A sample that varies only along some axes of ``shape``, as (read-only
    broadcast view, its full C-ordered copy).  ``kind`` "any" draws signed values with
    zeros of both signs, "positive" values in [0.5, 2.5)."""
    vary = [draw(st.booleans()) for _ in shape]
    stored = tuple(n if v else 1 for n, v in zip(shape, vary))
    rng = np.random.default_rng(draw(st.integers(0, 2 ** 32 - 1)))
    if kind == "positive":
        values = 0.5 + 2.0 * rng.random(stored)
    else:
        values = rng.uniform(-2.0, 2.0, stored) * 10.0 ** rng.integers(-3, 4, stored)
        values[rng.random(stored) < 0.15] = 0.0
        values[rng.random(stored) < 0.15] = -0.0
    view = np.broadcast_to(values, shape)
    return view, np.array(view, order="C")


def read_only(values):
    values.setflags(write=False)
    return values


def density_pair(model, rho, tau):
    """A density whose samples are the views, and its twin holding read-only
    copies of them."""
    sigma = TransverseDensityData.lebesgue(model)
    sigma.rho_values, sigma.tau_values = rho[0], tau[0]
    twin = copy.copy(sigma)
    twin.rho_values, twin.tau_values = read_only(rho[1]), read_only(tau[1])
    return sigma, twin


@settings(max_examples=150, deadline=None)
@given(st.data())
def test_every_sample_reader_gives_the_bits_of_a_full_array(data):
    model = data.draw(models())
    shape, size = model.grid.shape, model.group_size
    rng = np.random.default_rng(data.draw(st.integers(0, 2 ** 32 - 1)))
    values = data.draw(profiles(shape))
    rho = data.draw(profiles(shape, "positive"))
    tau = data.draw(profiles(shape, "positive"))
    phi = data.draw(profiles(shape, "positive"))

    # pull_sum: equal weights (one sum along a cyclic axis) and unequal ones
    # (an FFT along it), each of a view and of its copy
    for weights in (np.full(size, rng.uniform(0.1, 1.0)), rng.uniform(-1, 1, size)):
        assert_same_bits(model.pull_sum(weights, values[0]),
                         model.pull_sum(weights, values[1]))
    assert_same_bits(orbit_integrals(model, rho[0], values[0]),
                     orbit_integrals(model, rho[1], values[1]))
    assert_same_bits(pair_with_base_density(model, tau[0], values[0]),
                     pair_with_base_density(model, tau[1], values[1]))
    assert_same_bits(cutoff_construct(model, rho[0], phi[0]),
                     cutoff_construct(model, rho[1], phi[1]))
    got, want = averaging(model, rho[0], values[0]), averaging(model, rho[1], values[1])
    assert_same_bits(got.values, want.values)
    assert_same_bits(got.constancy_defect, want.constancy_defect)
    node = tuple(int(i) for i in rng.integers(0, shape))
    got, want = orbit_density(model, rho[0], node), orbit_density(model, rho[1], node)
    assert list(got.masses) == list(want.masses)
    assert_same_bits(list(got.masses.values()), list(want.masses.values()))

    # a test function of grid fields read at the target and the source: its
    # slices, and both defects over it and factored test functions
    coeffs = rng.uniform(-1, 1, (2, size))
    u = [ArrowFunction(model, [(coeffs[0], v, 1), (coeffs[1], v, 0)]) for v in values]
    j = int(rng.integers(size))
    assert_same_bits(u[0].slice(j), u[1].slice(j))
    sigma, twin = density_pair(model, rho, tau)
    tests = default_test_set(model, random.Random(int(rng.integers(2 ** 32))), count=3)
    assert_same_bits(invariance_defects(model, sigma, tests + u[:1]),
                     invariance_defects(model, twin, tests + u[1:]))


def probe_or_error(foliation, u, **tol):
    try:
        report = exactness_probe(foliation, u, **tol)
    except FiberObstructionError as exc:
        return str(exc)
    return report.antiderivative, report.tail_magnitude


@settings(max_examples=150, deadline=None)
@given(st.data())
def test_leafwise_readers_give_the_bits_of_a_full_array(data):
    n_leaf, n_transverse = data.draw(st.integers(3, 40)), data.draw(st.integers(2, 9))
    leaf_axis = data.draw(st.integers(0, 1))
    shape = [n_transverse, n_transverse]
    shape[leaf_axis] = n_leaf
    grid = Grid([Axis(n, 0.0, 1.0, periodic=data.draw(st.booleans())) for n in shape])
    foliation = FoliatedGrid(grid, leaf_axis)
    weights, integrand = data.draw(profiles(grid.shape)), data.draw(profiles(grid.shape))
    assert_same_bits(foliation.evaluate(weights[0], integrand[0]),
                     foliation.evaluate(weights[1], integrand[1]))
    assert_same_bits(foliation.leafwise_derivative(integrand[0]),
                     foliation.leafwise_derivative(integrand[1]))
    assert_same_bits(stokes_defect(foliation, weights[0], integrand[0]),
                     stokes_defect(foliation, weights[1], integrand[1]))
    # a transverse profile of equal weights, as a 1-D view and as its copy
    transverse = np.broadcast_to(data.draw(st.floats(0.1, 4.0)), shape[1 - leaf_axis])
    assert_same_bits(foliation.evaluate(transverse, integrand[0]),
                     foliation.evaluate(np.array(transverse, order="C"), integrand[1]))
    if grid.axes[leaf_axis].periodic:
        return
    # with the obstruction judged (most profiles fail it, with one message)
    # and with it waived, so that the antiderivative is built
    u = data.draw(profiles(grid.shape))
    for tol in ({}, {"tol": np.inf}):
        got, want = probe_or_error(foliation, u[0], **tol), probe_or_error(foliation, u[1], **tol)
        assert type(got) is type(want)
        if isinstance(got, str):
            assert got == want
        else:
            assert_same_bits(got[0], want[0])
            assert_same_bits(got[1], want[1])


# ---------------------------------------------------------------------------
# the grid weights and the stored samples

def old_weights(grid):
    """The product-rule weights as a full array, multiplied in axis order."""
    w = grid.axis_weight(0).copy()
    for axis in range(1, grid.ndim):
        w = w * grid.axis_weight(axis)
    return w


@st.composite
def grids(draw):
    axes = []
    for _ in range(draw(st.integers(1, 3))):
        periodic = draw(st.booleans())
        n = draw(st.integers(1 if periodic else 2, 12))
        lo = draw(st.floats(-3.0, 3.0))
        axes.append(Axis(n, lo, lo + draw(st.floats(0.01, 7.0)), periodic=periodic))
    return Grid(axes)


@settings(max_examples=200, deadline=None)
@given(grids())
def test_grid_weights_are_the_full_product_bit_for_bit(grid):
    assert_same_values(grid.weights, old_weights(grid))
    # an axis of equal weights is stored at length 1
    stored = stored_part(grid.weights)
    for n, k, ax in zip(grid.shape, stored.shape, grid.axes):
        assert k == (1 if np.all(ax.weights() == ax.weights()[0]) else n)


def test_a_periodic_middle_axis_is_stored_once():
    grid = Grid([Axis(5, 0.0, 1.0), Axis(7, 0.0, TWO_PI, periodic=True),
                 Axis(3, -1.0, 2.0)])
    assert_same_values(grid.weights, old_weights(grid))
    assert stored_part(grid.weights).shape == (5, 1, 3)


def test_a_density_stores_only_the_axes_its_sample_varies_on():
    model = CyclicAxisModel(Grid([Axis(6, 1.0, 2.0), Axis(8, 0.0, TWO_PI, periodic=True)]),
                            axis=1, polar=True)
    lebesgue = TransverseDensityData.lebesgue(model)
    assert stored_part(lebesgue.rho_values).shape == stored_part(lebesgue.tau_values).shape \
        == (6, 1)
    # a -0.0 in a sample reads 0.0, as it did in the sum with a zero grid
    mesh = model.grid.meshgrid()
    tau_fn = lambda r, phi: -0.0 * np.cos(phi) * r  # noqa: E731
    sigma = TransverseDensityData(model, lambda r, phi: 1.0 + 0 * phi, tau_fn)
    assert_same_values(sigma.tau_values, np.asarray(tau_fn(*mesh)) + np.zeros(model.grid.shape))
    assert not np.signbit(sigma.tau_values).any()
    assert stored_part(sigma.rho_values).shape == (1, 8)


def test_a_field_sample_is_a_read_only_view_of_its_profile():
    grid = Grid([Axis(6, 1.0, 2.0), Axis(8, 0.0, TWO_PI, periodic=True)])
    mesh = grid.meshgrid()
    for expr, stored in [("1 + r", (6, 1)), ("-0.0*r", (6, 1)), ("cos(phi)", (1, 8)),
                         ("2", (1, 1)), ("r*phi", (6, 8))]:
        sample = compile_field(expr, 2)(*mesh)
        assert sample.shape == grid.shape and stored_part(sample).shape == stored
        # the values of the sum with a zero grid: float, and no -0.0
        reference = eval(expr, {"cos": np.cos, "r": mesh[0], "phi": mesh[1]})
        assert_same_values(sample, reference + np.zeros(grid.shape))


def test_a_result_that_does_not_broadcast_to_the_grid_keeps_its_error():
    # a one-argument where gives a tuple of index arrays, here of shape (1, 3)
    nodes = Grid([Axis(4, 0.0, TWO_PI, periodic=True)]).nodes(0)
    with pytest.raises(ExpressionError, match=r"cannot evaluate 'where\(t > 1.0\)': operands "
                       r"could not be broadcast together with shapes \(1,3\) \(4,\)"):
        compile_field("where(t > 1.0)", 1)(nodes)


def test_writing_into_a_sample_raises():
    ctx = ScenarioContext("x", read_model("smooth", {"kind": "rotation2d",
                                                     "params": {"n_r": 4, "n_phi": 8}}), 0)
    sigma, grid = ctx.sigma(), ctx.model().grid
    samples = {"rho": sigma.rho_values, "tau": sigma.tau_values, "weights": grid.weights,
               "field": ctx.field("1 + r"),
               "compiled": compile_field("cos(phi)", 2)(*grid.meshgrid())}
    for values in samples.values():
        before = np.array(values)
        with pytest.raises(ValueError):
            values[0, 0] = 5.0
        with pytest.raises(ValueError):
            values *= 2.0
        with pytest.raises(ValueError):
            np.add(values, 1.0, out=values)
        assert_same_values(values, before)
