"""Leafwise Stokes identities, current pairings, and the exactness probe."""

import numpy as np
import pytest

from groupoid_measures.density import Axis, Grid
from groupoid_measures.smooth import (
    FiberObstructionError,
    FoliatedGrid,
    OneForm,
    SubmersionGroupoidModel,
    exactness_probe,
    exterior_derivative,
    ruelle_sullivan_evaluate,
    stokes_defect,
)


def horizontal_foliation(n_leaf):
    grid = Grid([Axis(n_leaf + 1, 0.0, 1.0), Axis(33, 0.0, 1.0)])
    return FoliatedGrid(grid, leaf_axis=0)


def boundary_vanishing_omega(fol):
    x, y = fol.grid.meshgrid()
    return x * (1 - x) ** 2 * np.exp(-3 * y)


def transverse_profile(fol):
    return 1.0 + 0.5 * np.sin(2 * np.pi * fol.grid.nodes(1))


def test_stokes_defect_small_at_target_resolution():
    fol = horizontal_foliation(256)
    defect = stokes_defect(fol, transverse_profile(fol), boundary_vanishing_omega(fol))
    assert defect <= 1e-4


def test_stokes_convergence_order():
    defects = []
    for n in (128, 256):
        fol = horizontal_foliation(n)
        defects.append(stokes_defect(fol, transverse_profile(fol),
                                     boundary_vanishing_omega(fol)))
    order = np.log2(defects[0] / defects[1])
    assert order >= 1.8


def test_stokes_zero_omega_gives_exact_zero():
    fol = horizontal_foliation(64)
    assert stokes_defect(fol, transverse_profile(fol),
                         np.zeros(fol.grid.shape)) == 0.0


def test_stokes_interior_supported_omega_cancels_to_rounding():
    fol = horizontal_foliation(256)
    # dense coordinates: the mask indexes every node of the grid
    x, y = np.broadcast_arrays(*fol.grid.meshgrid())
    omega = np.exp(-60 * (x - 0.5) ** 2) * np.exp(-y)
    omega[np.abs(x - 0.5) > 0.4] = 0.0
    assert stokes_defect(fol, transverse_profile(fol), omega) <= 1e-12


def test_stokes_noninvariant_weight_is_detected():
    fol = horizontal_foliation(256)
    # dense coordinates: the mask indexes every node of the grid
    x, y = np.broadcast_arrays(*fol.grid.meshgrid())
    omega = np.exp(-60 * (x - 0.5) ** 2) * np.exp(-y)
    omega[np.abs(x - 0.5) > 0.4] = 0.0
    leafwise_varying = 1.0 + x  # weights depend on the leaf coordinate
    # 1D oracle: integral of w(x) d/dx omega over one leaf
    defect = stokes_defect(fol, leafwise_varying, omega)
    assert defect > 1e-3


def test_ruelle_sullivan_pairing_with_leaf_length_form():
    fol = horizontal_foliation(128)
    w = transverse_profile(fol)
    alpha = OneForm(np.ones(fol.grid.shape), np.zeros(fol.grid.shape))
    value = ruelle_sullivan_evaluate(fol, w, alpha)
    expected = 1.0 * float((w * fol.grid.axes[1].weights()).sum())
    assert abs(value - expected) <= 1e-12 * abs(expected)


def test_ruelle_sullivan_closed_on_differentials():
    for n, bound in ((128, 4e-4), (256, 1e-4)):
        fol = horizontal_foliation(n)
        beta = boundary_vanishing_omega(fol)
        value = ruelle_sullivan_evaluate(fol, transverse_profile(fol),
                                         exterior_derivative(fol, beta))
        assert abs(value) <= bound


def test_ruelle_sullivan_ignores_transverse_components():
    fol = horizontal_foliation(64)
    rng = np.random.default_rng(0)
    alpha = OneForm(np.zeros(fol.grid.shape), rng.standard_normal(fol.grid.shape))
    assert ruelle_sullivan_evaluate(fol, transverse_profile(fol), alpha) == 0.0


@pytest.fixture(scope="module")
def probe_model():
    grid = Grid([Axis(9, -2.0, 2.0), Axis(8193, -4.0, 4.0)])
    return SubmersionGroupoidModel(grid, fiber_axes=[1])


def test_exactness_probe_recovers_bump(probe_model):
    x, y = probe_model.total.meshgrid()
    bump = np.exp(-(x ** 2 + y ** 2))
    report = exactness_probe(probe_model, -2.0 * y * bump)
    assert np.max(np.abs(report.antiderivative - bump)) <= 1e-6
    assert report.tail_magnitude <= 1e-6


def test_in_place_antiderivative_equals_the_cumulative_trapezoid_bit_for_bit():
    # a spacing that is not a power of two, so that a reordered product would show
    model = SubmersionGroupoidModel(Grid([Axis(9, -2.0, 2.0), Axis(4097, -3.0, 4.0)]),
                                    fiber_axes=[1])
    x, y = model.total.meshgrid()
    u = -2.0 * y * np.exp(-(x ** 2 + y ** 2)) + 1e-3 * np.sin(7 * y) * np.cos(3 * x)
    h = model.total.axes[1].spacing
    w = np.moveaxis(u, 1, 0)
    reference = np.zeros_like(w)
    reference[1:] = np.cumsum((w[1:] + w[:-1]) * (h / 2), axis=0)
    report = exactness_probe(model, u, tol=np.inf)
    assert np.array_equal(report.antiderivative, np.moveaxis(reference, 0, 1))


def test_exactness_probe_rejects_nonzero_fiber_integral(probe_model):
    x, y = probe_model.total.meshgrid()
    with pytest.raises(FiberObstructionError):
        exactness_probe(probe_model, np.exp(-(x ** 2 + y ** 2)))


def test_exactness_probe_zero_input(probe_model):
    report = exactness_probe(probe_model,
                             np.zeros(probe_model.total.shape))
    assert np.max(np.abs(report.antiderivative)) == 0.0


def test_exactness_probe_requires_interval_fibers():
    grid = Grid([Axis(9, 0.0, 1.0), Axis(16, 0.0, 2 * np.pi, periodic=True)])
    model = SubmersionGroupoidModel(grid, fiber_axes=[1])
    with pytest.raises(ValueError, match="interval"):
        exactness_probe(model, np.zeros(grid.shape))
