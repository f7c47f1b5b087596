"""Transverse operations on action models: fiber integrals through cocycles.

Heavier identities run on moderate grids; the acceptance suite repeats the
critical ones at the full resolutions.
"""

import collections
import copy
import gc
import random
import weakref

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from groupoid_measures.smooth import (
    ArrowFunction,
    CyclicAxisModel,
    FiniteActionModel,
    ModelError,
    RotationPlaneModel,
    SaturationError,
    ScalingLineModel,
    SeparableField,
    TransverseDensityData,
    antipodal_circle_model,
    averaging,
    circle_self_model,
    cocycle_additivity_defect,
    cocycle_vanishing_defect,
    cutoff_construct,
    cutoff_normalization_defect,
    default_test_set,
    fiber_volumes,
    invariance_defect,
    invariance_defects,
    inversion_invariance_check,
    mirror_interval_model,
    modular_cocycle,
    orbit_density,
    orbit_integrals,
    s_fiber_integrate,
    shriek_average,
    shriek_difference,
    t_fiber_integrate,
    weinstein_volume,
    weyl_check,
)
from groupoid_measures.smooth import transverse
from groupoid_measures.smooth.models import TrivialActionModel
from groupoid_measures.smooth.transverse import _factored_parts, _is_factored, field_values
from groupoid_measures.density import Axis, Grid
from groupoid_measures.expressions import ScenarioError
from groupoid_measures.reports import relative_error


EPS = np.finfo(float).eps


def flat_integral(model, values):
    """Reference: the flat sum of the values against the grid's product weights."""
    return float((values * model.grid.weights).sum())


def slice_arrow_function(model, slices):
    """Reference builder: u(g_j, x) = slices[j], one term per group node with
    a unit coefficient vector."""
    return ArrowFunction(model, terms=[(a, np.asarray(s, dtype=float), 0)
                                       for a, s in zip(np.eye(model.group_size), slices)])


def pullback(model, values, e):
    """The pullback of a base function along the source (e = 0) or the target
    (e = 1): one term with unit coefficients."""
    return ArrowFunction(model, terms=[(np.ones(model.group_size), values, e)])


@pytest.fixture(scope="module")
def rotation():
    return RotationPlaneModel(n_r=48, n_phi=64, r_lo=1.0, r_hi=2.0)


@pytest.fixture(scope="module")
def lebesgue(rotation):
    return TransverseDensityData.lebesgue(rotation)


def test_model_axioms_hold_on_samples(rotation):
    assert rotation.check_axioms(random.Random(0)) <= 1e-12
    assert antipodal_circle_model(64).check_axioms(random.Random(1)) <= 1e-12


def test_circle_haar_masses_are_the_axis_weights_over_two_pi():
    model = circle_self_model(17)
    masses = model.haar_masses()
    # bit for bit: at n = 17 this product differs from 1/n in the last bit
    assert np.array_equal(masses, model.grid.axes[0].weights() * (1.0 / (2 * np.pi)))
    assert masses[0] != 1.0 / 17
    assert abs(masses.sum() - 1.0) <= 1e-12


def test_antipodal_haar_masses_are_exact_halves():
    assert antipodal_circle_model(8).haar_masses().tolist() == [0.5, 0.5]
    assert mirror_interval_model(65, 1.0).check_axioms(random.Random(2)) <= 1e-12


def test_s_fiber_integral_of_one_with_normalized_weight(rotation):
    rho = np.ones(rotation.grid.shape)
    u = pullback(rotation, np.ones(rotation.grid.shape), 0)
    out = s_fiber_integrate(rotation, rho, u)
    assert np.max(np.abs(out - 1.0)) <= 1e-12


def test_s_fiber_integral_factorizes_group_independent_input(rotation):
    rng = np.random.default_rng(3)
    rho = 1.0 + 0.2 * rng.uniform(size=rotation.grid.shape)
    u1 = rng.standard_normal(rotation.grid.shape)
    out = s_fiber_integrate(rotation, rho, pullback(rotation, u1, 0))
    expected = u1 * fiber_volumes(rotation, rho)
    assert np.max(np.abs(out - expected)) <= 1e-12


def test_two_element_fiber_sums_cross_checked_by_hand():
    model = mirror_interval_model(9, 1.0)
    rho = np.linspace(1.0, 2.0, 9)
    u_slices = np.stack([np.arange(9.0), np.arange(9.0)[::-1]])
    u = slice_arrow_function(model, u_slices)
    out = s_fiber_integrate(model, rho, u)
    # two-term sums: haar mass 1/2 each, identity leaves nodes, mirror flips
    expected = 0.5 * (u_slices[0] * rho + u_slices[1] * rho[::-1])
    assert np.max(np.abs(out - expected)) <= 1e-15

    tout = t_fiber_integrate(model, rho, u)
    # target-fiber integral at x: the unit arrow at x plus the mirror arrow
    # from -x, which carries the fiber mass of its inverse, rho(-x)/2
    expected_t = 0.5 * (u_slices[0] * rho + u_slices[1][::-1] * rho[::-1])
    assert np.max(np.abs(tout - expected_t)) <= 1e-15


def test_fiber_integrals_are_linear(rotation, lebesgue):
    rng = random.Random(4)
    u = ArrowFunction.random(rotation, rng)
    v = ArrowFunction.random(rotation, rng)
    c = 1.75
    comb = slice_arrow_function(rotation, [c * u.slice(j) + v.slice(j)
                                           for j in range(rotation.group_size)])
    left = s_fiber_integrate(rotation, lebesgue.rho_values, comb)
    right = c * s_fiber_integrate(rotation, lebesgue.rho_values, u) \
        + s_fiber_integrate(rotation, lebesgue.rho_values, v)
    assert np.max(np.abs(left - right)) <= 1e-12


def test_invariance_defect_small_for_invariant_sigma(rotation, lebesgue):
    tests = default_test_set(rotation, random.Random(5))
    assert invariance_defect(rotation, lebesgue, tests) <= 1e-6
    assert inversion_invariance_check(rotation, lebesgue, tests) <= 1e-6


def test_invariance_defect_detects_angular_weight(rotation):
    bad = TransverseDensityData(rotation, lambda r, p: np.ones_like(r),
                                lambda r, p: r * (1.0 + 0.5 * np.cos(p)))
    tests = default_test_set(rotation, random.Random(5))
    assert invariance_defect(rotation, bad, tests) > 1e-2
    assert inversion_invariance_check(rotation, bad, tests) > 1e-2


def test_trivial_action_has_exact_zero_defect():
    grid = Grid([Axis(17, 0.0, 1.0)])
    model = TrivialActionModel(grid)
    sigma = TransverseDensityData(model, lambda x: np.ones_like(x),
                                  lambda x: 1.0 + x)
    tests = default_test_set(model, random.Random(6), count=4)
    assert invariance_defect(model, sigma, tests) == 0.0


def test_averaging_of_radial_section_returns_radial_profile(rotation, lebesgue):
    r = rotation.grid.meshgrid()[0]
    section = np.exp(-3 * (r - 1.5) ** 2)
    res = averaging(rotation, lebesgue.rho_values, section)
    assert res.constancy_defect <= 1e-14
    assert np.max(np.abs(res.values - section)) <= 1e-12  # rho is normalized


def test_averaging_annihilates_shriek_differences(rotation, lebesgue):
    rng = random.Random(7)
    for _ in range(5):
        u = ArrowFunction.random(rotation, rng)
        diff = s_fiber_integrate(rotation, lebesgue.rho_values, u) \
            - t_fiber_integrate(rotation, lebesgue.rho_values, u)
        res = averaging(rotation, lebesgue.rho_values, diff)
        assert np.max(np.abs(res.values)) <= 1e-6


def test_averaging_matches_finite_engine_on_z2_action():
    from fractions import Fraction
    from groupoid_measures.finite import (action_groupoid, average_function,
                                          cyclic_group_table, HaarWeight)
    model = mirror_interval_model(5, 1.0)
    # dyadic section and weight so float sums are exact
    section = np.array([0.5, 1.0, 0.25, 2.0, 0.75])
    rho = np.array([2.0, 2.0, 2.0, 2.0, 2.0])
    res = averaging(model, rho, section)

    perm = [4, 3, 2, 1, 0]
    g = action_groupoid(cyclic_group_table(2),
                        [list(range(5)), perm], 5, "mirror")
    haar = HaarWeight(g, [Fraction(1)] * 5)
    exact = average_function(g, haar, [Fraction(v) for v in section])
    assert [Fraction(v) for v in res.values] == exact


def test_cutoff_constant_seed_on_normalized_model(rotation, lebesgue):
    c = cutoff_construct(rotation, lebesgue.rho_values,
                         np.ones(rotation.grid.shape))
    assert np.max(np.abs(c - 1.0)) <= 1e-12


def test_cutoff_gaussian_seed_normalizes_nodewise(rotation, lebesgue):
    r, phi = rotation.grid.meshgrid()
    seed = np.exp(-4 * (r - 1.5) ** 2) * (1.3 + np.cos(phi))
    c = cutoff_construct(rotation, lebesgue.rho_values, seed)
    assert cutoff_normalization_defect(rotation, lebesgue.rho_values, c) <= 1e-9


def test_cutoff_saturation_failure(rotation, lebesgue):
    r = rotation.grid.meshgrid()[0]
    off_orbit = np.exp(-1500.0 * (r - 1.5) ** 2)
    with pytest.raises(SaturationError, match="saturation"):
        cutoff_construct(rotation, lebesgue.rho_values, off_orbit)


def test_weyl_formula_and_seed_independence(rotation, lebesgue):
    r, phi = rotation.grid.meshgrid()
    f = np.exp(-30 * (r - 1.5) ** 2) * (1 + 0.3 * np.cos(phi))
    seed1 = np.exp(-4 * (r - 1.5) ** 2) * (1.3 + np.cos(phi))
    seed2 = 0.5 + 0.1 * np.sin(phi) + (r - 1.5) ** 2
    lhs, rhs1 = weyl_check(rotation, lebesgue, f,
                           cutoff=cutoff_construct(rotation, lebesgue.rho_values, seed1))
    _, rhs2 = weyl_check(rotation, lebesgue, f,
                         cutoff=cutoff_construct(rotation, lebesgue.rho_values, seed2))
    assert relative_error(lhs, rhs1) <= 1e-6
    assert abs(rhs1 - rhs2) <= 2e-6 * abs(rhs1)


def test_weyl_radial_integrand_against_polar_closed_form(rotation, lebesgue):
    # f(r) = r: integral of r * (Lebesgue) over the annulus = 2 pi (r_hi^3 - r_lo^3)/3
    r = rotation.grid.meshgrid()[0]
    lhs, rhs = weyl_check(rotation, lebesgue, r, cutoff=cutoff_construct(
        rotation, lebesgue.rho_values, np.ones(rotation.grid.shape)))
    closed = 2 * np.pi * (2.0 ** 3 - 1.0) / 3
    assert abs(lhs - closed) <= 1e-3 * closed  # trapezoid in r
    assert relative_error(lhs, rhs) <= 1e-12


def test_weyl_volume_corollary(rotation, lebesgue):
    # f = 1: lhs is the total area, rhs integrates orbit volumes
    ones = np.ones(rotation.grid.shape)
    lhs, rhs = weyl_check(rotation, lebesgue, ones,
                          cutoff=cutoff_construct(rotation, lebesgue.rho_values, ones))
    assert relative_error(lhs, rhs) <= 1e-12
    area = np.pi * (4.0 - 1.0)
    assert abs(lhs - area) <= 1e-10 * area


def test_weinstein_volume_antipodal_circle():
    model = antipodal_circle_model(256)
    sigma = TransverseDensityData(model, lambda t: 2.0 * np.ones_like(t),
                                  lambda t: np.ones_like(t))
    seed = 1.0 + 0.5 * np.cos(2 * model.grid.nodes(0))
    direct, reciprocal = weinstein_volume(
        model, sigma, cutoff=cutoff_construct(model, sigma.rho_values, seed))
    assert abs(direct - np.pi) <= 1e-9
    assert relative_error(direct, reciprocal) <= 1e-6


def test_weinstein_volume_circle_self_action():
    model = circle_self_model(128)
    sigma = TransverseDensityData(model, lambda t: np.ones_like(t),
                                  lambda t: np.ones_like(t) / (2 * np.pi))
    direct, reciprocal = weinstein_volume(
        model, sigma, cutoff=cutoff_construct(model, sigma.rho_values, np.ones(model.grid.shape)))
    assert abs(direct - 1.0) <= 1e-12
    assert relative_error(direct, reciprocal) <= 1e-12


def test_weinstein_volume_trivial_group_returns_total_mass():
    grid = Grid([Axis(33, 0.0, 2.0)])
    model = TrivialActionModel(grid)
    sigma = TransverseDensityData(model, lambda x: np.ones_like(x),
                                  lambda x: np.ones_like(x))
    direct, _ = weinstein_volume(
        model, sigma, cutoff=cutoff_construct(model, sigma.rho_values, np.ones(model.grid.shape)))
    assert abs(direct - 2.0) <= 1e-12


def test_orbit_density_free_rotation(rotation, lebesgue):
    measure = orbit_density(rotation, lebesgue.rho_values, (10, 3))
    assert abs(measure.total() - 1.0) <= 1e-12
    n_phi = rotation.grid.shape[1]
    assert len(measure.masses) == n_phi
    rows = {k // n_phi for k in measure.masses}
    assert rows == {10}


def test_orbit_density_base_point_independence(rotation, lebesgue):
    first = orbit_density(rotation, lebesgue.rho_values, (10, 3))
    second = orbit_density(rotation, lebesgue.rho_values, (10, 40))
    assert first.distance(second) <= 1e-9


def test_orbit_density_fixed_point_is_an_atom():
    disk = RotationPlaneModel(n_r=17, n_phi=32, r_lo=0.0, r_hi=1.0)
    rho = np.ones(disk.grid.shape)
    measure = orbit_density(disk, rho, (0, 5))
    assert abs(measure.total() - 1.0) <= 1e-12
    assert {k // 32 for k in measure.masses} == {0}  # supported at radius zero


def test_modular_cocycle_vanishes_for_lebesgue_rotation(rotation, lebesgue):
    rng = np.random.default_rng(8)
    for _ in range(20):
        j = int(rng.integers(rotation.group_size))
        x = (float(rng.uniform(1.0, 2.0)), float(rng.uniform(0, 2 * np.pi)))
        assert abs(modular_cocycle(rotation, lebesgue, j, x)) <= 1e-12


def test_modular_cocycle_scaling_model_gives_log_two():
    model = ScalingLineModel(max_power=2)
    sigma = TransverseDensityData(model, lambda x: np.ones_like(x),
                                  lambda x: np.ones_like(x))
    j_double = model.max_power + 1
    value = modular_cocycle(model, sigma, j_double, (1.0,))
    # finite-difference Jacobian oracle for the doubling map
    eps = 1e-6
    fd = ((model.act_points(j_double, (1.0 + eps,))[0]
           - model.act_points(j_double, (1.0 - eps,))[0]) / (2 * eps))
    assert abs(fd - 2.0) <= 1e-9
    assert abs(value - np.log(2.0)) <= 1e-12


def test_cocycle_additivity_on_seeded_pairs(rotation, lebesgue):
    assert cocycle_additivity_defect(rotation, lebesgue,
                                     random.Random(9)) <= 1e-9
    model = ScalingLineModel(max_power=2)
    sigma = TransverseDensityData(model, lambda x: np.ones_like(x),
                                  lambda x: 2.0 + np.sin(x))
    assert cocycle_additivity_defect(model, sigma,
                                     random.Random(10)) <= 1e-9


def test_cocycle_requires_positive_sigma():
    model = ScalingLineModel(max_power=1)
    sigma = TransverseDensityData(model, lambda x: np.ones_like(x),
                                  lambda x: np.ones_like(x))
    sigma.tau_fn = lambda x: x - 10.0  # negative at the sample point
    with pytest.raises(ValueError, match="positive"):
        modular_cocycle(model, sigma, model.max_power + 1, (1.0,))


def test_averaging_requires_proper_model():
    model = ScalingLineModel()
    with pytest.raises(ModelError, match="proper"):
        averaging(model, np.ones(model.grid.shape), np.ones(model.grid.shape))


def test_modular_cocycle_data_wrapper():
    model = ScalingLineModel(max_power=2)
    sigma = TransverseDensityData(model, lambda x: np.ones_like(x),
                                  lambda x: np.ones_like(x))
    assert abs(modular_cocycle(model, sigma, model.max_power + 1, (1.0,))
               - np.log(2.0)) <= 1e-12
    assert cocycle_additivity_defect(model, sigma, random.Random(11)) <= 1e-9


def test_weinstein_threshold_error():
    model = circle_self_model(64)
    sigma = TransverseDensityData(model, lambda t: np.ones_like(t),
                                  lambda t: np.ones_like(t))
    with pytest.raises(ScenarioError, match="threshold"):
        weinstein_volume(model, sigma, volume_threshold=10.0, cutoff=cutoff_construct(
            model, sigma.rho_values, np.ones(model.grid.shape)))


def test_finite_action_descriptor_kind():
    from groupoid_measures.smooth import build_model
    model = build_model({"kind": "finite_action",
                         "params": {"preset": "antipodal_circle", "n": 64}})
    assert model.group_size == 2


def test_weyl_trivial_group_sides_are_identical():
    grid = Grid([Axis(21, 0.0, 1.0), Axis(13, 0.0, 2.0)])
    model = TrivialActionModel(grid)
    sigma = TransverseDensityData(model, lambda x, y: np.ones_like(x),
                                  lambda x, y: 1.0 + x * y)
    f = np.sin(grid.meshgrid()[0]) + grid.meshgrid()[1]
    lhs, rhs = weyl_check(model, sigma, f,
                          cutoff=cutoff_construct(model, sigma.rho_values, np.ones(grid.shape)))
    assert lhs == rhs


def test_action_axioms_robust_at_angle_wraparound():
    # composites landing within an ulp of the period must not register as
    # order-one defects; compare j + k = n at a node near the seam
    model = RotationPlaneModel(n_r=4, n_phi=256, r_lo=1.0, r_hi=2.0)
    phi = model.grid.nodes(1)[255]
    two_step = model.act_points(1, model.act_points(255, (1.5, phi)))
    combined = model.act_points(0, (1.5, phi))
    assert model._point_distance(two_step, combined) <= 1e-12


@pytest.mark.parametrize("make", [
    lambda: RotationPlaneModel(n_r=3, n_phi=8, r_lo=1.0, r_hi=2.0),
    lambda: circle_self_model(8),
    lambda: antipodal_circle_model(8),
    lambda: mirror_interval_model(7, 1.0),
    lambda: TrivialActionModel(Grid([Axis(4, 0.0, 1.0), Axis(3, 0.0, 2.0)])),
], ids=["rotation2d", "circle_self", "antipodal", "mirror", "trivial"])
def test_node_image_matches_pulled_unit_probe(make):
    # reference: a(g_j, x) is where the unit probe at x lands when pulled
    # back along g_j^-1
    model = make()
    n = int(np.prod(model.grid.shape))
    for flat in range(n):
        probe = np.zeros(n)
        probe[flat] = 1.0
        landed = [int(np.argmax(model.pull(model.inv(j), probe.reshape(model.grid.shape))))
                  for j in range(model.group_size)]
        assert model.node_images(flat).tolist() == landed


def test_both_antipodal_spellings_build_the_same_node_maps():
    from groupoid_measures.smooth import build_model
    direct = build_model({"kind": "antipodal_circle", "params": {"n": 16}})
    preset = build_model({"kind": "finite_action",
                          "params": {"preset": "antipodal_circle", "n": 16}})
    assert direct.node_table.shape == preset.node_table.shape == (2, 16)
    assert np.array_equal(direct.node_table, preset.node_table)


# ---------------------------------------------------------------------------
# structured kernels against the per-group-node loop, kept as the reference

PROPER_MODELS = [
    lambda: RotationPlaneModel(n_r=5, n_phi=12, r_lo=1.0, r_hi=2.0),
    lambda: circle_self_model(15),
    lambda: antipodal_circle_model(8),
    lambda: mirror_interval_model(7, 1.0),
    lambda: TrivialActionModel(Grid([Axis(4, 0.0, 1.0), Axis(3, 0.0, 2.0)])),
]
PROPER_IDS = ["rotation2d", "circle_self", "antipodal", "mirror", "trivial"]


def cyclic_model(n_r, n):
    return (circle_self_model(n) if n_r == 1
            else RotationPlaneModel(n_r=n_r, n_phi=n, r_lo=1.0, r_hi=2.0))


def cyclic_rho(model, kind, rng):
    """A positive rho that is constant, varies off the axis only, or varies along it."""
    shape = model.grid.shape
    if kind == "constant":
        return np.full(shape, 1.5)
    if kind == "off_axis":
        profile = 0.5 + rng.uniform(size=shape[:model.axis] + (1,) + shape[model.axis + 1:])
        return np.broadcast_to(profile, shape).copy()
    return 0.5 + rng.uniform(size=shape)


def loop_s_integral(model, rho, slice_of):
    """Reference: sum over group nodes of haar[j] * u(g_j, .) * pull(j, rho)."""
    haar = model.haar_masses()
    acc = np.zeros(model.grid.shape)
    for j in range(model.group_size):
        acc += haar[j] * slice_of(j) * model.pull(j, rho)
    return acc


def loop_inverted_slice(model, u):
    """Reference inversion: (g_j, x) -> u(g_j^-1, a(g_j, x)), slice by slice."""
    return lambda j: model.pull(j, u.slice(model.inv(j)))


def arrow_forms(model, rng):
    """Every way of building an arrow function, with its slices as a reference."""
    shape = model.grid.shape
    field = 1.0 + rng.uniform(size=shape)
    opaque = rng.standard_normal((model.group_size,) + shape)
    coeffs = rng.standard_normal((3, model.group_size))
    fields = rng.standard_normal((3,) + shape)
    forms = {
        "separable": ArrowFunction(model, terms=[(a, b, 0) for a, b in zip(coeffs, fields)]),
        "base": pullback(model, field, 0),
        "target": pullback(model, field, 1),
        "opaque": slice_arrow_function(model, opaque),
    }
    refs = {"separable": lambda j: sum(c[j] * f for c, f in zip(coeffs, fields))}
    refs["base"] = lambda j: field
    refs["target"] = lambda j: model.pull(j, field)
    refs["opaque"] = lambda j: opaque[j]
    for name in list(forms):
        u, ref = forms[name], refs[name]
        forms[f"{name}.inverted"] = u.inverted()
        refs[f"{name}.inverted"] = loop_inverted_slice(model, u)
        forms[f"{name}.inverted.inverted"] = u.inverted().inverted()
        refs[f"{name}.inverted.inverted"] = ref
    return forms, refs


def assert_close(out, ref, scale):
    assert np.max(np.abs(out - ref)) <= 1e-13 * scale


@pytest.mark.parametrize("make", PROPER_MODELS, ids=PROPER_IDS)
def test_fiber_integrals_match_the_group_node_loop(make):
    model = make()
    rng = np.random.default_rng(12)
    rho = 0.5 + rng.uniform(size=model.grid.shape)
    forms, refs = arrow_forms(model, rng)
    for name, u in forms.items():
        ref = refs[name]
        scale = max(float(np.max(np.abs(ref(j)))) for j in range(model.group_size)) \
            * float(np.max(rho))
        for j in range(model.group_size):
            assert_close(u.slice(j), ref(j), scale)
        assert_close(s_fiber_integrate(model, rho, u),
                     loop_s_integral(model, rho, ref), scale)
        assert_close(t_fiber_integrate(model, rho, u),
                     loop_s_integral(model, rho, loop_inverted_slice(model, u)), scale)


@pytest.mark.parametrize("make", PROPER_MODELS, ids=PROPER_IDS)
def test_orbit_spread_equals_the_loop_maximum(make):
    model = make()
    values = np.random.default_rng(13).standard_normal(model.grid.shape)
    loop = max(float(np.max(np.abs(model.pull(j, values) - values)))
               for j in range(model.group_size))
    assert model.orbit_spread(values) == loop


@settings(max_examples=60, deadline=None)
@given(n=st.integers(1, 33), n_r=st.integers(1, 4), seed=st.integers(0, 2 ** 32 - 1))
def test_cyclic_pull_sum_is_the_weighted_roll_sum(n, n_r, seed):
    # odd and even axis lengths, and weights that are not all equal, so the
    # FFT correlation runs and not only the equal-weight reduction: a full
    # array, a 1-D profile along the axis, and values constant along it (which
    # take the full-array FFT too)
    rng = np.random.default_rng(seed)
    model = cyclic_model(n_r, n)
    weights = rng.uniform(-1.0, 1.0, size=n)
    on_axis = [1] * model.grid.ndim
    on_axis[model.axis] = n
    for values in (rng.standard_normal(model.grid.shape), rng.standard_normal(on_axis),
                   cyclic_rho(model, "off_axis", rng)):
        loop = sum(weights[j] * model.pull(j, values) for j in range(n))
        scale = float(np.sum(np.abs(weights)) * np.max(np.abs(values)))
        out = model.pull_sum(weights, values)
        assert out.shape == values.shape
        assert_close(out, loop, scale)

    rho = 0.5 + rng.uniform(size=model.grid.shape)
    u = ArrowFunction.random(model, random.Random(seed))
    scale = max(float(np.max(np.abs(u.slice(j)))) for j in range(n)) \
        * float(np.max(rho))
    assert_close(s_fiber_integrate(model, rho, u), loop_s_integral(model, rho, u.slice),
                 scale)
    assert_close(t_fiber_integrate(model, rho, u),
                 loop_s_integral(model, rho, loop_inverted_slice(model, u)), scale)


# ---------------------------------------------------------------------------
# separable test fields, mixed source/target terms and the shared defect pair,
# each against the construction it replaced

def meshgrid_random(model, rng, rank=3):
    """Reference: the random arrow function built on the full meshgrid.

    The coefficients replay ``randbytes`` as one big integer: word i is bits
    64 i to 64 i + 63, and its top 53 bits scale to [0, 2) before the shift
    to [-1, 1).
    """
    size = rank * model.group_size
    bits = rng.getrandbits(64 * size)
    words = [(bits >> (64 * i)) & (2 ** 64 - 1) for i in range(size)]
    coeffs = np.array([(w >> 11) / 2 ** 52 - 1.0 for w in words]).reshape(
        rank, model.group_size)
    mesh = model.grid.meshgrid()
    fields = []
    for _ in range(rank):
        acc = np.ones(model.grid.shape)
        for axis, coord in enumerate(mesh):
            ax = model.grid.axes[axis]
            scaled = 2 * np.pi * (coord - ax.lo) / ax.length
            acc = acc * (1.0 + 0.5 * np.cos(scaled * rng.randrange(1, 3)
                                            + rng.uniform(0, 2 * np.pi)))
        fields.append(acc)
    return coeffs, fields


def meshgrid_probe(model):
    """Reference: the angular-harmonic probe built on the full meshgrid."""
    probe = np.ones(model.grid.shape)
    for axis, coord in enumerate(model.grid.meshgrid()):
        ax = model.grid.axes[axis]
        if ax.periodic:
            probe = probe * np.cos(coord)
        else:
            mid, width = (ax.lo + ax.hi) / 2, ax.length
            probe = probe * np.exp(-8.0 * ((coord - mid) / width) ** 2)
    return probe


FIELD_MODELS = [
    lambda: RotationPlaneModel(n_r=48, n_phi=64, r_lo=1.0, r_hi=2.0),
    lambda: circle_self_model(63),
    lambda: TrivialActionModel(Grid([Axis(21, 0.0, 1.0), Axis(13, -1.0, 2.0)])),
]
FIELD_IDS = ["rotation2d", "circle_self", "trivial2d"]


@pytest.mark.parametrize("make", FIELD_MODELS, ids=FIELD_IDS)
def test_random_fields_equal_the_meshgrid_construction(make):
    model = make()
    rng, ref_rng = random.Random(21), random.Random(21)
    for _ in range(4):
        u = ArrowFunction.random(model, rng)
        coeffs, fields = meshgrid_random(model, ref_rng)
        assert len(u.terms) == len(fields)
        for (a, b, e), c, f in zip(u.terms, coeffs, fields):
            assert e == 0 and b.values.shape == model.grid.shape
            assert np.array_equal(a, c) and np.array_equal(b.values, f)
            assert np.all((-1.0 <= a) & (a < 1.0))
    # the same draws in the same order: both generators are in one state
    assert rng.random() == ref_rng.random()


@pytest.mark.parametrize("make", FIELD_MODELS, ids=FIELD_IDS)
def test_default_probe_equals_the_meshgrid_construction(make):
    model = make()
    (a, b, e), = default_test_set(model, random.Random(22))[-1].terms
    assert e == 0 and np.array_equal(a, np.ones(model.group_size))
    assert np.array_equal(b.values, meshgrid_probe(model))


def mixed_arrow_function(model, rng):
    """Source and target terms, with equal and unequal weights, interleaved."""
    shape, size = model.grid.shape, model.group_size
    terms = [
        (rng.standard_normal(size), rng.standard_normal(shape), 0),
        (np.full(size, 1.5), rng.standard_normal(shape), 1),
        (rng.standard_normal(size), rng.standard_normal(shape), 1),
        (np.ones(size), rng.standard_normal(shape), 0),
        (rng.standard_normal(size), rng.standard_normal(shape), 1),
        (rng.standard_normal(size), rng.standard_normal(shape), 0),
    ]

    def ref(j):
        return sum(a[j] * (model.pull(j, b) if e else b) for a, b, e in terms)

    return ArrowFunction(model, terms=terms), ref


def assert_mixed_integrals_match_the_loop(model, rng):
    rho = 0.5 + rng.uniform(size=model.grid.shape)
    u, ref = mixed_arrow_function(model, rng)
    scale = sum(float(np.max(np.abs(a)) * np.max(np.abs(b))) for a, b, _ in u.terms) \
        * float(np.max(rho))
    assert_close(s_fiber_integrate(model, rho, u), loop_s_integral(model, rho, ref), scale)
    assert_close(t_fiber_integrate(model, rho, u),
                 loop_s_integral(model, rho, loop_inverted_slice(model, u)), scale)


@pytest.mark.parametrize("make", PROPER_MODELS, ids=PROPER_IDS)
def test_mixed_source_and_target_terms_match_the_group_node_loop(make):
    assert_mixed_integrals_match_the_loop(make(), np.random.default_rng(23))


@settings(max_examples=60, deadline=None)
@given(n=st.integers(1, 33), n_r=st.integers(1, 4), seed=st.integers(0, 2 ** 32 - 1))
def test_cyclic_mixed_terms_are_the_weighted_roll_sum(n, n_r, seed):
    model = cyclic_model(n_r, n)
    assert_mixed_integrals_match_the_loop(model, np.random.default_rng(seed))


def separate_defect_loops(model, sigma, tests):
    """Reference: the invariance and the inversion defect, each by its own loop
    over grid-sized s- and t-integrals."""
    invariance = inversion = 0.0
    for u in tests:
        s_part = s_fiber_integrate(model, sigma.rho_values, u)
        t_part = t_fiber_integrate(model, sigma.rho_values, u)
        invariance = max(invariance, abs(flat_integral(
            model, (s_part - t_part) * sigma.tau_values)))
    for u in tests:
        direct = flat_integral(
            model, s_fiber_integrate(model, sigma.rho_values, u) * sigma.tau_values)
        flipped = flat_integral(
            model, s_fiber_integrate(model, sigma.rho_values, u.inverted()) * sigma.tau_values)
        inversion = max(inversion, abs(direct - flipped))
    return invariance, inversion


def assert_defects_match_the_separate_loops(model, sigma, tests):
    """Grid path: equal to the loops.  Row-space path (every test function
    factored): within 32 eps of the L1 size of the pairings, the largest
    <|s|, tau> + <|t|, tau> over the test set."""
    pair = invariance_defects(model, sigma, tests)
    ref = separate_defect_loops(model, sigma, tests)
    if not any(_is_factored(model, sigma.rho_values, u) for u in tests):
        assert pair == ref
        return
    tau = sigma.tau_values
    scale = max(flat_integral(model, np.abs(s_fiber_integrate(model, sigma.rho_values, u)) * tau)
                + flat_integral(model, np.abs(t_fiber_integrate(model, sigma.rho_values, u)) * tau)
                for u in tests)
    assert abs(pair[0] - ref[0]) <= 32 * EPS * scale
    assert abs(pair[1] - ref[1]) <= 32 * EPS * scale


def rotation_model():
    return RotationPlaneModel(n_r=24, n_phi=32, r_lo=1.0, r_hi=2.0)


@pytest.mark.parametrize("make,rho,tau,row_space", [
    (rotation_model, None, None, True),
    (rotation_model, lambda r, phi: 1.0 + 0.0 * r,
     lambda r, phi: r * (1.0 + 0.3 * np.cos(phi)), True),
    (lambda: circle_self_model(31), lambda t: 1.0 + 0.0 * t,
     lambda t: 1.0 + 0.5 * np.sin(t), True),
    (rotation_model, lambda r, phi: 1.0 + 0.3 * np.cos(phi),
     lambda r, phi: r * (1.0 + 0.3 * np.cos(phi)), False),
    (lambda: circle_self_model(31), lambda t: 1.0 + 0.3 * np.cos(t),
     lambda t: 1.0 + 0.5 * np.sin(t), False),
    (lambda: antipodal_circle_model(16), lambda t: 1.0 + 0.0 * t,
     lambda t: 1.0 + 0.5 * np.sin(t), False),
    (lambda: mirror_interval_model(9, 1.0), lambda x: 1.0 + 0.0 * x,
     lambda x: 1.0 + x, False),
], ids=["rotation-lebesgue", "rotation-angular", "circle_self", "rotation-rho-along-axis",
        "circle-rho-along-axis", "antipodal", "mirror"])
def test_shared_defect_pair_equals_the_separate_loops(make, rho, tau, row_space):
    model = make()
    sigma = (TransverseDensityData.lebesgue(model) if tau is None else
             TransverseDensityData(model, rho, tau))
    tests = default_test_set(model, random.Random(24))
    assert all(_is_factored(model, sigma.rho_values, u) == row_space for u in tests)
    assert_defects_match_the_separate_loops(model, sigma, tests)
    pair = invariance_defects(model, sigma, tests)
    assert invariance_defect(model, sigma, tests) == pair[0]
    assert inversion_invariance_check(model, sigma, tests) == pair[1]


@settings(max_examples=60, deadline=None)
@given(n=st.integers(1, 33), n_r=st.integers(1, 4), seed=st.integers(0, 2 ** 32 - 1),
       kind=st.sampled_from(["constant", "off_axis", "along_axis"]))
def test_defect_pair_matches_the_separate_loops_on_random_grids(n, n_r, seed, kind):
    model = cyclic_model(n_r, n)
    rng = np.random.default_rng(seed)
    rho = cyclic_rho(model, kind, rng)
    tau = 0.5 + rng.uniform(size=model.grid.shape)
    sigma = TransverseDensityData(model, lambda *c: rho, lambda *c: tau)
    assert_defects_match_the_separate_loops(
        model, sigma, default_test_set(model, random.Random(seed), count=4))


# ---------------------------------------------------------------------------
# factored fields through the cyclic kernel: the 1-D profile FFT of
# pull_sum and the split target terms of the fiber integral, against the
# materialized-array FFT path and the group-node loop

@pytest.fixture
def rfft_calls(monkeypatch):
    """Counts np.fft.rfft calls by operand shape.

    A correlation of a full grid array transforms the grid array with the
    cyclic axis moved last (``full_grid_shape``); rows along the axis, one
    profile or a K x n stack of them, have other shapes.
    """
    counts = {}
    fft = np.fft.rfft

    def counted(a, *args, **kwargs):
        key = np.shape(a)
        counts[key] = counts.get(key, 0) + 1
        return fft(a, *args, **kwargs)

    monkeypatch.setattr(np.fft, "rfft", counted)
    return counts


def full_grid_shape(model):
    """The shape of a full grid array with the cyclic axis moved last."""
    shape = list(model.grid.shape)
    shape.append(shape.pop(model.axis))
    return tuple(shape)


def materialized(u):
    """The same arrow function with every factored field multiplied out."""
    return ArrowFunction(u.model, terms=[
        (a, b.values if isinstance(b, SeparableField) else b, e) for a, b, e in u.terms])


def assert_factored_integrals_match(model, rho, tests):
    """s- and t-integrals: factored == materialized == loop, to 1e-12 relative."""
    for u in tests:
        scale = max(float(np.max(np.abs(u.slice(j)))) for j in range(model.group_size)) \
            * float(np.max(rho))
        flat = materialized(u)
        for integral, ref in (
                (s_fiber_integrate, loop_s_integral(model, rho, u.slice)),
                (t_fiber_integrate,
                 loop_s_integral(model, rho, loop_inverted_slice(model, u)))):
            out = integral(model, rho, u)
            assert np.max(np.abs(out - integral(model, rho, flat))) <= 1e-12 * scale
            assert np.max(np.abs(out - ref)) <= 1e-12 * scale


@pytest.mark.parametrize("n_r, n", [(5, 63), (4, 64), (1, 63), (1, 64)],
                         ids=["rotation-odd", "rotation-even", "circle-odd", "circle-even"])
@pytest.mark.parametrize("kind", ["constant", "off_axis", "along_axis"])
def test_factored_fiber_integrals_match_the_materialized_fft_and_the_loop(n_r, n, kind):
    model = cyclic_model(n_r, n)
    rho = cyclic_rho(model, kind, np.random.default_rng(31))
    assert_factored_integrals_match(model, rho,
                                    default_test_set(model, random.Random(31), count=4))


@settings(max_examples=60, deadline=None)
@given(n=st.integers(1, 33), n_r=st.integers(1, 4), seed=st.integers(0, 2 ** 32 - 1),
       kind=st.sampled_from(["constant", "off_axis", "along_axis"]))
def test_factored_fiber_integrals_match_on_random_grids(n, n_r, seed, kind):
    model = cyclic_model(n_r, n)
    rho = cyclic_rho(model, kind, np.random.default_rng(seed))
    assert_factored_integrals_match(model, rho,
                                    default_test_set(model, random.Random(seed), count=3))


@pytest.mark.parametrize("make", PROPER_MODELS[2:], ids=PROPER_IDS[2:])
def test_finite_models_integrate_factored_fields_as_arrays(make):
    model = make()
    rho = 0.5 + np.random.default_rng(32).uniform(size=model.grid.shape)
    for u in default_test_set(model, random.Random(32), count=3):
        for integral in (s_fiber_integrate, t_fiber_integrate):
            assert np.array_equal(integral(model, rho, u),
                                  integral(model, rho, materialized(u)))


def test_lebesgue_rotation_checks_make_no_full_grid_fft(rfft_calls, values_reads):
    # the random fields stay factored and the Lebesgue rho is constant along
    # the angle, so every correlation is a 1-D FFT of the angle axis and no
    # factored field is multiplied out to the grid
    from groupoid_measures import read_scenario, run_scenario
    doc = {"name": "x", "engine": "smooth",
           "model": {"kind": "rotation2d", "params": {"n_r": 8, "n_phi": 16}},
           "checks": [{"name": "invariance_defect"}, {"name": "inversion_defect"},
                      {"name": "averaging_annihilates"}]}
    rows = run_scenario(read_scenario(doc))
    assert [r.check for r in rows] == ["invariance_defect", "inversion_defect",
                                      "averaging_annihilates"]
    assert all(r.passed for r in rows)
    grid = full_grid_shape(RotationPlaneModel(n_r=8, n_phi=16, r_lo=1.0, r_hi=2.0))
    assert rfft_calls.get(grid, 0) == 0
    # the target correlations ran, as rows along the axis
    assert sum(c for shape, c in rfft_calls.items() if shape[-1] == 16) > 0
    assert not values_reads


# ---------------------------------------------------------------------------
# the factored terms of a cyclic fiber integral summed in one matrix product,
# against the group-node loop; the other terms keep their own pull_sum

def batched_arrow_function(model, rng):
    """Factored source and target terms, equal and unequal weights, and plain arrays."""
    size, shape = model.group_size, model.grid.shape

    def field():
        return SeparableField(model.grid, [1.0 + rng.uniform(size=ax.n)
                                           for ax in model.grid.axes])

    return ArrowFunction(model, terms=[
        (rng.standard_normal(size), field(), 0),
        (np.ones(size), field(), 1),
        (rng.standard_normal(size), field(), 1),
        (rng.standard_normal(size), rng.standard_normal(shape), 1),
        (np.full(size, 0.5), field(), 0),
        (rng.standard_normal(size), rng.standard_normal(shape), 0),
        (rng.standard_normal(size), field(), 1),
    ])


def separable_fields(u):
    return [b for _, b, _ in u.terms if isinstance(b, SeparableField)]


@pytest.fixture
def values_reads(monkeypatch):
    """How often each ``SeparableField`` (by id) is multiplied out from now on."""
    reads = collections.Counter()
    product = SeparableField.values.fget

    def counted(self):
        reads[id(self)] += 1
        return product(self)
    monkeypatch.setattr(SeparableField, "values", property(counted))
    return reads


def test_a_slice_keeps_no_field_array_alive():
    model = cyclic_model(5, 63)
    u = ArrowFunction.random(model, random.Random(6))
    u.slice(0)
    for b in separable_fields(u):
        assert list(vars(b)) == ["profiles"]
        assert max(p.size for p in b.profiles) < np.prod(model.grid.shape)
        assert b.values is not b.values and b.values.flags.writeable


BATCH_GRIDS = pytest.mark.parametrize(
    "n_r, n", [(5, 63), (4, 64), (1, 63), (1, 64)],
    ids=["rotation-odd", "rotation-even", "circle-odd", "circle-even"])


@BATCH_GRIDS
@pytest.mark.parametrize("kind", ["constant", "off_axis"])
def test_batched_factored_terms_match_the_group_node_loop(n_r, n, kind):
    model = cyclic_model(n_r, n)
    rng = np.random.default_rng(41)
    rho = cyclic_rho(model, kind, rng)
    u = batched_arrow_function(model, rng)
    s_part, t_part = s_fiber_integrate(model, rho, u), t_fiber_integrate(model, rho, u)
    assert s_part.shape == t_part.shape == model.grid.shape
    scale = max(float(np.max(np.abs(u.slice(j)))) for j in range(n)) * float(np.max(rho))
    assert np.max(np.abs(s_part - loop_s_integral(model, rho, u.slice))) <= 1e-12 * scale
    assert np.max(np.abs(t_part - loop_s_integral(
        model, rho, loop_inverted_slice(model, u)))) <= 1e-12 * scale


@BATCH_GRIDS
def test_batched_path_never_multiplies_a_factored_field_out(n_r, n, values_reads):
    # the defect pairing and the average of s - t, in row space
    model = cyclic_model(n_r, n)
    rng = np.random.default_rng(42)
    rho = cyclic_rho(model, "off_axis", rng)
    sigma = TransverseDensityData(model, lambda *c: rho,
                                  lambda *c: 0.5 + rng.uniform(size=model.grid.shape))
    factored = ArrowFunction(model, [t for t in batched_arrow_function(model, rng).terms
                                     if isinstance(t[1], SeparableField)])
    tests = [factored] + default_test_set(model, random.Random(42), count=3)
    assert all(_is_factored(model, sigma.rho_values, u) for u in tests)
    invariance_defects(model, sigma, tests)
    for u in tests:
        shriek_average(model, sigma.rho_values, u)
    assert model.orbit_spread(rho) == 0.0
    assert not values_reads


@BATCH_GRIDS
def test_rho_varying_along_the_axis_keeps_the_per_term_path(n_r, n, values_reads):
    model = cyclic_model(n_r, n)
    rng = np.random.default_rng(43)
    rho = cyclic_rho(model, "along_axis", rng)
    u = batched_arrow_function(model, rng)
    for integral in (s_fiber_integrate, t_fiber_integrate):
        values_reads.clear()
        out = integral(model, rho, u)
        assert all(values_reads[id(b)] for b in separable_fields(u))
        assert np.array_equal(out, integral(model, rho, materialized(u)))


# ---------------------------------------------------------------------------
# the batched cocycle against a per-arrow scalar reference

def dense_nodes(model):
    """Reference: the chart coordinates of every grid node in flat order, one
    array per axis (the open ``meshgrid`` broadcast to the grid)."""
    return [m.ravel() for m in np.broadcast_arrays(*model.grid.meshgrid())]


def scalar_additivity_defect(model, sigma, rng, samples):
    """The per-arrow loop the batched additivity defect replaced."""
    flat = dense_nodes(model)
    worst = 0.0
    drawn = 0
    while drawn < samples:
        j = rng.randrange(model.group_size)
        k = rng.randrange(model.group_size)
        jk = model.mul(j, k)
        if jk is None:
            continue
        drawn += 1
        p = rng.randrange(len(flat[0]))
        x = tuple(c[p] for c in flat)
        c_k = modular_cocycle(model, sigma, k, x)
        c_j = modular_cocycle(model, sigma, j, model.act_points(k, x))
        c_jk = modular_cocycle(model, sigma, jk, x)
        worst = max(worst, abs(c_j + c_k - c_jk))
    return worst


def scalar_vanishing_defect(model, sigma, rng, samples):
    flat = dense_nodes(model)
    worst = 0.0
    for _ in range(samples):
        j = rng.randrange(model.group_size)
        p = rng.randrange(len(flat[0]))
        worst = max(worst, abs(modular_cocycle(model, sigma, j, tuple(c[p] for c in flat))))
    return worst


def _cocycle_cases():
    rot = RotationPlaneModel(n_r=6, n_phi=16, r_lo=1.0, r_hi=2.0)
    circle = circle_self_model(24)
    antipodal = antipodal_circle_model(24)
    mirror = mirror_interval_model(17, 1.0)
    # the reflection with explicit Jacobian maps; the second is not the true
    # one, so that the batch must pick each element's own map
    reflection = FiniteActionModel(
        mirror.grid, table=[[0, 1], [1, 0]], node_maps=mirror.node_table,
        point_maps=mirror.point_maps,
        jacobians=[lambda x: np.ones_like(x), lambda x: -(2.0 + x)])
    scaling = ScalingLineModel(max_power=2)
    return {
        "rotation": TransverseDensityData(rot, lambda r, t: 3.0 + np.cos(t) * r,
                                          lambda r, t: r * (1.5 + np.sin(2 * t))),
        "circle_self": TransverseDensityData(circle, lambda t: 2.0 + np.sin(t),
                                             lambda t: 1.0 + 0.5 * np.cos(3 * t)),
        "antipodal": TransverseDensityData(antipodal, lambda t: 2.0 + np.sin(t),
                                           lambda t: np.exp(np.cos(t))),
        "mirror": TransverseDensityData(mirror, lambda x: 1.5 + x,
                                        lambda x: 1.0 + x * x),
        "reflection": TransverseDensityData(reflection, lambda x: 1.5 + x,
                                            lambda x: 2.0 + np.sin(3 * x)),
        "scaling": TransverseDensityData(scaling, lambda x: 1.0 + x * x,
                                         lambda x: 2.0 + np.sin(x)),
    }


COCYCLE_CASES = _cocycle_cases()


@settings(max_examples=40, deadline=None)
@given(st.sampled_from(sorted(COCYCLE_CASES)), st.integers(0, 2**32 - 1),
       st.integers(1, 60))
def test_batched_cocycle_defects_equal_the_scalar_loops(case, seed, samples):
    sigma = COCYCLE_CASES[case]
    model = sigma.model
    assert cocycle_additivity_defect(model, sigma, random.Random(seed), samples) \
        == scalar_additivity_defect(model, sigma, random.Random(seed), samples)
    assert cocycle_vanishing_defect(model, sigma, random.Random(seed), samples) \
        == scalar_vanishing_defect(model, sigma, random.Random(seed), samples)


@settings(max_examples=40, deadline=None)
@given(st.sampled_from(sorted(COCYCLE_CASES)), st.data())
def test_batched_cocycle_equals_the_per_arrow_values(case, data):
    sigma = COCYCLE_CASES[case]
    model = sigma.model
    flat = dense_nodes(model)
    n = data.draw(st.integers(1, 30))
    j = np.array(data.draw(st.lists(st.integers(0, model.group_size - 1),
                                    min_size=n, max_size=n)))
    p = np.array(data.draw(st.lists(st.integers(0, len(flat[0]) - 1),
                                    min_size=n, max_size=n)))
    batched = modular_cocycle(model, sigma, j, [c[p] for c in flat])
    scalar = [modular_cocycle(model, sigma, int(jj), tuple(c[pp] for c in flat))
              for jj, pp in zip(j, p)]
    assert batched.tolist() == scalar
    images = model.act_points(j, [c[p] for c in flat])
    for i, (jj, pp) in enumerate(zip(j, p)):
        one = model.act_points(int(jj), tuple(c[pp] for c in flat))
        assert [float(v[i]) for v in images] == [float(v) for v in one]


def test_nan_density_is_rejected():
    model = mirror_interval_model(17, 1.0)
    with np.errstate(invalid="ignore", divide="ignore"):
        with pytest.raises(ScenarioError, match="strictly positive and finite"):
            TransverseDensityData(model, lambda x: 1 + np.sqrt(x - 0.5),
                                  lambda x: np.ones_like(x))
        with pytest.raises(ScenarioError, match="nonnegative and finite"):
            TransverseDensityData(model, lambda x: np.ones_like(x),
                                  lambda x: np.log(x + 0.5))
    with pytest.raises(ScenarioError, match="nonnegative and finite"):
        TransverseDensityData(model, lambda x: np.ones_like(x),
                              lambda x: np.full_like(x, np.inf))


# ---------------------------------------------------------------------------
# the array paths of the rotation hot loops against the per-element loops
# they replaced, compared bit for bit

def scalar_check_axioms(model, rng, samples):
    """The per-sample loop of check_axioms: scalar calls on meshgrid points."""
    flat = dense_nodes(model)

    def distance(p, q):
        worst = 0.0
        for axis, (a, b) in enumerate(zip(p, q)):
            d = abs(float(a) - float(b))
            ax = model.grid.axes[axis]
            if ax.periodic:
                d = d % ax.length
                d = min(d, ax.length - d)
            worst = max(worst, d)
        return worst

    worst = 0.0
    e = model.identity_index()
    for _ in range(samples):
        p = rng.randrange(len(flat[0]))
        pt = [c[p] for c in flat]
        jk = None
        while jk is None:
            j = rng.randrange(model.group_size)
            k = rng.randrange(model.group_size)
            jk = model.mul(j, k)
        worst = max(worst, distance(model.act_points(e, pt), pt))
        worst = max(worst, distance(model.act_points(j, model.act_points(k, pt)),
                                    model.act_points(jk, pt)))
        jj = model.jacobian_points(j, model.act_points(k, pt)) * model.jacobian_points(k, pt)
        worst = max(worst, abs(jj - model.jacobian_points(jk, pt)))
    return worst


def _skewed_rotation():
    """A rotation whose point action is off by a node-dependent angle, so the
    compatibility defect is not zero and its running maximum is tested."""
    model = RotationPlaneModel(n_r=5, n_phi=12, r_lo=1.0, r_hi=2.0)
    exact = model.act_points
    model.act_points = lambda j, pts: exact(j, (pts[0], pts[1] + 1e-3 * pts[0] * np.cos(j)))
    return model


AXIOM_MODELS = {
    "rotation": lambda: RotationPlaneModel(n_r=5, n_phi=12, r_lo=1.0, r_hi=2.0),
    "circle_self": lambda: circle_self_model(15),
    "antipodal": lambda: antipodal_circle_model(8),
    "mirror": lambda: mirror_interval_model(7, 1.0),
    "trivial": lambda: TrivialActionModel(Grid([Axis(4, 0.0, 1.0), Axis(3, 0.0, 2.0)])),
    "jacobians": lambda: COCYCLE_CASES["reflection"].model,
    "scaling_line": lambda: ScalingLineModel(max_power=2),
    "skewed_rotation": _skewed_rotation,
}


@settings(max_examples=60, deadline=None)
@given(st.sampled_from(sorted(AXIOM_MODELS)), st.integers(0, 2**32 - 1), st.integers(0, 40))
def test_check_axioms_equals_the_per_sample_loop(case, seed, samples):
    model = AXIOM_MODELS[case]()
    rng, ref_rng = random.Random(seed), random.Random(seed)
    assert model.check_axioms(rng, samples) == scalar_check_axioms(model, ref_rng, samples)
    # the same draws in the same order: both generators are in one state
    assert rng.random() == ref_rng.random()


def test_check_axioms_returns_the_defect_of_a_failing_axiom():
    # the caller judges it: the model_axioms row compares it with 1e-9
    assert COCYCLE_CASES["reflection"].model.check_axioms(random.Random(0)) > 1e-9


def loop_orbit_density(model, rho, node):
    """The per-element dict loop of orbit_density, one node image at a time."""
    haar = model.haar_masses()
    flat = int(np.ravel_multi_index(node, model.grid.shape))
    n = int(np.prod(model.grid.shape))
    masses = {}
    for j in range(model.group_size):
        probe = np.zeros(n)
        probe[flat] = 1.0
        target = int(np.argmax(model.pull(model.inv(j), probe.reshape(model.grid.shape))))
        masses[target] = masses.get(target, 0.0) + float(haar[j]) * float(rho.ravel()[target])
    return masses


@pytest.mark.parametrize("make, node", [
    (lambda: RotationPlaneModel(n_r=5, n_phi=12, r_lo=1.0, r_hi=2.0), (3, 7)),
    (lambda: RotationPlaneModel(n_r=9, n_phi=16, r_lo=0.0, r_hi=1.0), (0, 5)),
    (lambda: circle_self_model(15), (4,)),
    (lambda: antipodal_circle_model(8), (3,)),
    (lambda: mirror_interval_model(7, 1.0), (1,)),
    (lambda: mirror_interval_model(7, 1.0), (3,)),
    (lambda: TrivialActionModel(Grid([Axis(4, 0.0, 1.0), Axis(3, 0.0, 2.0)])), (2, 1)),
], ids=["rotation", "disk-centre", "circle_self", "antipodal", "mirror", "mirror-centre",
        "trivial"])
def test_orbit_density_equals_the_per_element_loop(make, node):
    model = make()
    rho = 0.5 + np.random.default_rng(51).uniform(size=model.grid.shape)
    masses = orbit_density(model, rho, node).masses
    ref = loop_orbit_density(model, rho, node)
    # same keys in the same order, same masses bit for bit
    assert list(masses.items()) == list(ref.items())
    if model.name == "mirror_interval" and node == (3,):
        assert len(masses) == 1  # the fixed centre takes both masses as one atom


@pytest.mark.parametrize("make", PROPER_MODELS, ids=PROPER_IDS)
@pytest.mark.parametrize("kind", ["constant", "off_axis", "along_axis"])
def test_orbit_integrals_equal_the_target_fiber_integral(make, kind):
    """Orbit integrals, fiber volumes, cut-offs, their normalization and the
    fiber mass of averaging are the s-integral of a target pullback."""
    model = make()
    rng = np.random.default_rng(52)
    shape = model.grid.shape
    rho = (cyclic_rho(model, kind, rng) if isinstance(model, CyclicAxisModel)
           else np.full(shape, 1.5) if kind == "constant" else 0.5 + rng.uniform(size=shape))

    def target_integral(f):
        return s_fiber_integrate(model, rho, pullback(model, np.asarray(f, dtype=float), 1))

    def assert_equal(out, ref):
        assert np.array_equal(out, ref) and out.shape == ref.shape

    f = rng.standard_normal(shape)
    phi = 0.5 + rng.uniform(size=shape)
    for values in (f, phi, np.zeros(shape)):
        assert_equal(orbit_integrals(model, rho, values), target_integral(values))
    ones = np.ones((1,) * len(shape))
    assert_equal(fiber_volumes(model, rho), target_integral(ones))
    cutoff = cutoff_construct(model, rho, phi)
    assert_equal(cutoff, phi / target_integral(phi))
    assert cutoff_normalization_defect(model, rho, cutoff) \
        == float(np.max(np.abs(target_integral(cutoff) - 1.0)))
    section = model.pull_sum(model.haar_masses(), rng.uniform(size=shape))
    assert np.array_equal(averaging(model, rho, np.array(section)).values,
                          target_integral(section))


@pytest.mark.parametrize("make", PROPER_MODELS, ids=PROPER_IDS)
def test_fused_pairing_equals_integrate_of_the_product(make):
    from groupoid_measures.smooth.transverse import pair_with_base_density
    model = make()
    rng = np.random.default_rng(53)
    f, tau = rng.standard_normal(model.grid.shape), rng.uniform(size=model.grid.shape)
    assert pair_with_base_density(model, tau, f) == flat_integral(model, f * tau)


@settings(max_examples=40, deadline=None)
@given(n=st.integers(1, 33), n_r=st.integers(1, 4), seed=st.integers(0, 2 ** 32 - 1))
def test_equal_weight_pull_sum_is_the_orbit_space_sum(n, n_r, seed):
    model = cyclic_model(n_r, n)
    rng = np.random.default_rng(seed)
    weights = np.full(n, rng.uniform(-1.0, 1.0))
    on_axis = [1] * model.grid.ndim
    on_axis[model.axis] = n
    for values in (rng.standard_normal(model.grid.shape), rng.standard_normal(on_axis)):
        out = model.pull_sum(weights, values)
        sums = weights[0] * values.sum(model.axis, keepdims=True)
        # length 1 along the axis, the sums themselves
        assert out.shape == sums.shape and out.shape[model.axis] == 1
        assert np.array_equal(out, sums)
        # broadcast against the grid, it is the repeat of the sums, and its
        # spread is that of the repeat: zero
        repeat = np.repeat(sums, n, axis=model.axis)
        assert np.array_equal(np.broadcast_to(out, repeat.shape), repeat)
        assert model.orbit_spread(out) == model.orbit_spread(repeat) == 0.0


def test_inverted_reads_the_inverse_index():
    model = antipodal_circle_model(8)
    assert model.inverse_index.tolist() == [model.inv(j) for j in range(model.group_size)]
    rotation = RotationPlaneModel(n_r=3, n_phi=8, r_lo=1.0, r_hi=2.0)
    assert rotation.inverse_index.tolist() == [(-j) % 8 for j in range(8)]
    assert rotation.inverse_index is rotation.inverse_index


# ---------------------------------------------------------------------------
# factored test functions kept factored through the defect and averaging
# checks: the stacked correlation rows, the one-integral difference, the
# vectorized random draw, the base projection view and the rho constancy
# memo, each against the construction it replaced

def loop_random(model, rng, rank=3):
    """Reference: the random arrow function with one cosine per field and axis,
    as (coefficients, per-field lists of axis profiles)."""
    words = np.frombuffer(rng.randbytes(8 * rank * model.group_size), dtype="<u8")
    coeffs = ((words >> 11) * 2.0 ** -52 - 1.0).reshape(rank, model.group_size)
    fields = []
    for _ in range(rank):
        profiles = []
        for ax in model.grid.axes:
            scaled = 2 * np.pi * (ax.nodes() - ax.lo) / ax.length
            profiles.append(1.0 + 0.5 * np.cos(
                scaled * rng.randrange(1, 3) + rng.uniform(0, 2 * np.pi)))
        fields.append(profiles)
    return coeffs, fields


def assert_random_equals_the_loop(model, seed, rank=3):
    rng, ref_rng = random.Random(seed), random.Random(seed)
    for _ in range(3):
        u = ArrowFunction.random(model, rng, rank=rank)
        coeffs, fields = loop_random(model, ref_rng, rank=rank)
        assert len(u.terms) == rank
        for (a, b, e), c, profiles in zip(u.terms, coeffs, fields):
            assert e == 0 and np.array_equal(a, c)
            assert len(b.profiles) == len(profiles)
            for p, ref in zip(b.profiles, profiles):
                assert np.array_equal(p.ravel(), ref)
    assert rng.random() == ref_rng.random()


@pytest.mark.parametrize("make", FIELD_MODELS, ids=FIELD_IDS)
def test_vectorized_random_equals_the_per_field_loop(make):
    assert_random_equals_the_loop(make(), 61)


@settings(max_examples=60, deadline=None)
@given(sizes=st.lists(st.integers(2, 70), min_size=1, max_size=3),
       rank=st.integers(1, 5), seed=st.integers(0, 2 ** 32 - 1))
def test_vectorized_random_equals_the_loop_on_random_grids(sizes, rank, seed):
    # axis lengths off and on the SIMD widths, so every tail of np.cos runs
    grid = Grid([Axis(n, -1.0, 0.5 + i) for i, n in enumerate(sizes)])
    assert_random_equals_the_loop(TrivialActionModel(grid), seed, rank=rank)


def per_term_rows(model, haar, terms):
    """Reference: each factored term's row by its own pull_sum, repeated along
    the axis where that is an orbit-space sum."""
    rows = []
    for a, b, e in terms:
        along = b.split(model.axis)[0]
        w = haar * a
        row = (model.pull_sum(w, along) if e else w.sum() * along).ravel()
        rows.append(np.broadcast_to(row, model.group_size))
    return np.array(rows)


def assert_stacked_rows_equal_the_per_term_pull_sums(model, tests):
    haar = model.haar_masses()
    for u in tests:
        for v in (u, u.inverted()):
            terms = [t for t in v.terms if isinstance(t[1], SeparableField)]
            cols, rows = _factored_parts(model, haar, terms)
            assert np.array_equal(rows, per_term_rows(model, haar, terms))
            assert np.array_equal(cols, np.array([np.ravel(b.split(model.axis)[1])
                                                  for _, b, _ in terms]))


@BATCH_GRIDS
def test_stacked_correlation_rows_equal_the_per_term_pull_sums(n_r, n):
    model = cyclic_model(n_r, n)
    rng = np.random.default_rng(62)
    assert_stacked_rows_equal_the_per_term_pull_sums(
        model, [batched_arrow_function(model, rng)]
        + default_test_set(model, random.Random(62), count=3))


@settings(max_examples=60, deadline=None)
@given(n=st.integers(1, 33), n_r=st.integers(1, 4), seed=st.integers(0, 2 ** 32 - 1))
def test_stacked_correlation_rows_on_random_grids(n, n_r, seed):
    model = cyclic_model(n_r, n)
    assert_stacked_rows_equal_the_per_term_pull_sums(
        model, [batched_arrow_function(model, np.random.default_rng(seed))]
        + default_test_set(model, random.Random(seed), count=3))


def absolute(u):
    """|u| term by term: the integrand whose integrals bound every rounding
    error of the integrals of u."""
    return ArrowFunction(u.model, terms=[(np.abs(a), np.abs(field_values(b)), e)
                                         for a, b, e in u.terms])


def assert_shriek_difference_is_s_minus_t(model, rho, tests):
    """s - t itself, for every u."""
    for u in tests:
        s, t = s_fiber_integrate(model, rho, u), t_fiber_integrate(model, rho, u)
        assert np.array_equal(shriek_difference(model, rho, u), s - t)


@pytest.mark.parametrize("make", PROPER_MODELS, ids=PROPER_IDS)
@pytest.mark.parametrize("kind", ["constant", "along_axis"])
def test_shriek_difference_is_the_s_minus_t_integral(make, kind):
    model = make()
    rng = np.random.default_rng(63)
    rho = (np.full(model.grid.shape, 1.5) if kind == "constant"
           else 0.5 + rng.uniform(size=model.grid.shape))
    tests = default_test_set(model, random.Random(63), count=4)
    assert all(_is_factored(model, rho, u) == (
        isinstance(model, CyclicAxisModel) and kind == "constant") for u in tests)
    assert_shriek_difference_is_s_minus_t(model, rho, tests + [mixed_arrow_function(model, rng)[0]])


@settings(max_examples=60, deadline=None)
@given(n=st.integers(1, 33), n_r=st.integers(1, 4), seed=st.integers(0, 2 ** 32 - 1),
       kind=st.sampled_from(["constant", "off_axis", "along_axis"]))
def test_shriek_difference_on_random_grids(n, n_r, seed, kind):
    model = cyclic_model(n_r, n)
    rho = cyclic_rho(model, kind, np.random.default_rng(seed))
    assert_shriek_difference_is_s_minus_t(
        model, rho, default_test_set(model, random.Random(seed), count=3))


def test_rho_constancy_is_decided_once_per_read_only_density():
    model = cyclic_model(4, 16)
    tested = []

    def spread(values, _fn=model.orbit_spread):
        tested.append(id(values))
        return _fn(values)

    model.orbit_spread = spread
    sigma = TransverseDensityData.lebesgue(model)
    assert not sigma.rho_values.flags.writeable
    u = ArrowFunction.random(model, random.Random(65))
    for _ in range(3):
        shriek_average(model, sigma.rho_values, u)
    invariance_defects(model, sigma, default_test_set(model, random.Random(65)))
    assert len(tested) == 1
    # a second density replaces the one entry; the first is then tested again
    varying = TransverseDensityData(model, lambda r, phi: 1.0 + 0.3 * np.cos(phi),
                                    model.volume_coefficient)
    assert not model.constant_along_axis(varying.rho_values)
    assert not model.constant_along_axis(varying.rho_values)
    assert len(tested) == 2
    assert model.constant_along_axis(sigma.rho_values)
    assert len(tested) == 3
    # a writable rho is tested on every call, and leaves the entry alone
    rho = np.ones(model.grid.shape)
    assert model.constant_along_axis(rho)
    rho[0, 0] = 2.0
    assert not model.constant_along_axis(rho)
    rho[0, 0] = 1.0
    assert model.constant_along_axis(rho)
    assert tested[3:] == [id(rho)] * 3
    assert model.constant_along_axis(sigma.rho_values) and len(tested) == 6
    # the entry keeps no density alive
    gone = weakref.ref(sigma.rho_values)
    del sigma
    gc.collect()
    assert gone() is None


# ---------------------------------------------------------------------------
# orbit-space results: equal-weight cyclic sums stay at length 1 along the
# axis, against a copy of the model that spreads them over the grid, and the
# row-space average of a factored s - t against the grid average

def grid_sized(model):
    """Reference: a copy of a cyclic model whose ``pull_sum`` spreads every
    result over the grid, as a written array (the grid-sized fiber sums)."""
    ref = copy.copy(model)

    def pull_sum(weights, values):
        out = CyclicAxisModel.pull_sum(model, weights, values)
        return np.array(np.broadcast_to(out, np.broadcast_shapes(out.shape, np.shape(values))))

    ref.pull_sum = pull_sum
    return ref


def orbit_shape(model):
    shape = list(model.grid.shape)
    shape[model.axis] = 1
    return tuple(shape)


def assert_orbit_space_results_equal_the_grid(model, rho, rng):
    ref, shape = grid_sized(model), model.grid.shape
    f, phi = rng.standard_normal(shape), 0.5 + rng.uniform(size=shape)
    sigma = TransverseDensityData(model, lambda *c: rho, lambda *c: 0.5 + c[0] ** 2)
    sigma_ref = TransverseDensityData(ref, lambda *c: rho, lambda *c: 0.5 + c[0] ** 2)
    for values in (f, phi):
        u = pullback(model, values, 1)
        out = s_fiber_integrate(model, rho, u)
        assert out.shape == orbit_shape(model)
        assert np.array_equal(np.broadcast_to(out, shape), s_fiber_integrate(ref, rho, u))
    volumes = fiber_volumes(model, rho)
    assert volumes.shape == orbit_shape(model)
    # the target integral of 1 is bit for bit the source integral of 1 it replaced
    assert np.array_equal(np.broadcast_to(volumes, shape), s_fiber_integrate(
        ref, rho, pullback(ref, np.ones(shape), 0)))
    cutoff = cutoff_construct(model, rho, phi)
    assert np.array_equal(cutoff, cutoff_construct(ref, rho, phi))
    assert cutoff_normalization_defect(model, rho, cutoff) \
        == cutoff_normalization_defect(ref, rho, cutoff)
    assert weyl_check(model, sigma, f, cutoff=cutoff) \
        == weyl_check(ref, sigma_ref, f, cutoff=cutoff)
    assert weinstein_volume(model, sigma, cutoff=cutoff) \
        == weinstein_volume(ref, sigma_ref, cutoff=cutoff)
    res, res_ref = averaging(model, rho, f), averaging(ref, rho, f)
    assert res.values.shape == orbit_shape(model)
    assert np.array_equal(np.broadcast_to(res.values, shape), res_ref.values)
    assert res.constancy_defect == res_ref.constancy_defect == 0.0


@BATCH_GRIDS
@pytest.mark.parametrize("kind", ["constant", "off_axis", "along_axis"])
def test_orbit_space_results_equal_the_grid_sized_sums(n_r, n, kind):
    rng = np.random.default_rng(71)
    model = cyclic_model(n_r, n)
    assert_orbit_space_results_equal_the_grid(model, cyclic_rho(model, kind, rng), rng)


@settings(max_examples=60, deadline=None)
@given(n=st.integers(1, 33), n_r=st.integers(1, 4), seed=st.integers(0, 2 ** 32 - 1),
       kind=st.sampled_from(["constant", "off_axis", "along_axis"]))
def test_orbit_space_results_on_random_grids(n, n_r, seed, kind):
    rng = np.random.default_rng(seed)
    model = cyclic_model(n_r, n)
    assert_orbit_space_results_equal_the_grid(model, cyclic_rho(model, kind, rng), rng)


def test_constancy_defect_scales_a_nonzero_spread_by_the_integrand():
    model = cyclic_model(3, 8)
    rng = np.random.default_rng(72)
    rho, section = 0.5 + rng.uniform(size=model.grid.shape), rng.standard_normal((3, 8))
    assert averaging(model, rho, section).constancy_defect == 0.0
    model.orbit_spread = lambda values: 3e-9
    res = averaging(model, rho, section)
    assert res.constancy_defect == 3e-9 / float(np.max(np.abs(section * rho)))


class SourceOnly(ArrowFunction):
    """An arrow function whose inversion has no terms: its s - t is its
    s-integral, so its average is not zero."""

    def inverted(self):
        return ArrowFunction(self.model, terms=[])


def assert_row_space_average_matches_the_grid(model, rho, tests):
    """A factored u: the row-space average, at orbit-space shape, within
    32 eps of the grid average, measured by the averages of the s- and
    t-integrals of |u| (largest over the orbit space); any other u: the grid
    average itself."""
    largest = None  # largest average of an s-integral, relative to |u|
    for u in tests:
        grid = averaging(model, rho, shriek_difference(model, rho, u)).values
        row = shriek_average(model, rho, u)
        if not _is_factored(model, rho, u):
            assert np.array_equal(row, grid)
            continue
        assert row.shape == orbit_shape(model)
        s_size = np.max(np.abs(averaging(
            model, rho, s_fiber_integrate(model, rho, absolute(u))).values))
        t_size = np.max(np.abs(averaging(
            model, rho, t_fiber_integrate(model, rho, absolute(u))).values))
        assert np.all(np.abs(row - grid) <= 32 * EPS * (s_size + t_size))
        # the average of the s-integral alone, so that the rho and Haar
        # factors of the row-space formula show
        source = shriek_average(model, rho, SourceOnly(model, u.terms))
        ref = averaging(model, rho, s_fiber_integrate(model, rho, u)).values
        assert np.all(np.abs(source - ref) <= 32 * EPS * s_size)
        largest = max(largest or 0.0, float(np.max(np.abs(ref))) / s_size)
    return largest


@pytest.mark.parametrize("make", PROPER_MODELS, ids=PROPER_IDS)
@pytest.mark.parametrize("kind", ["constant", "off_axis", "along_axis"])
def test_shriek_average_is_the_average_of_the_s_minus_t_integral(make, kind, monkeypatch):
    model = make()
    rng = np.random.default_rng(73)
    rho = (cyclic_rho(model, kind, rng) if isinstance(model, CyclicAxisModel)
           else 0.5 + rng.uniform(size=model.grid.shape))
    tests = default_test_set(model, random.Random(73), count=4)
    factored = isinstance(model, CyclicAxisModel) and kind != "along_axis"
    assert all(_is_factored(model, rho, u) == factored for u in tests)
    largest = assert_row_space_average_matches_the_grid(
        model, rho, tests + [mixed_arrow_function(model, rng)[0]])
    if factored:
        # these test functions have s-averages near their own size
        assert largest > 0.05
        # the row-space path builds no s - t and averages nothing on the grid
        monkeypatch.setattr(transverse, "averaging", None)
        monkeypatch.setattr(transverse, "s_fiber_integrate", None)
        for u in tests:
            shriek_average(model, rho, u)


@settings(max_examples=60, deadline=None)
@given(n=st.integers(1, 33), n_r=st.integers(1, 4), seed=st.integers(0, 2 ** 32 - 1),
       kind=st.sampled_from(["constant", "off_axis", "along_axis"]))
def test_shriek_average_on_random_grids(n, n_r, seed, kind):
    model = cyclic_model(n_r, n)
    rho = cyclic_rho(model, kind, np.random.default_rng(seed))
    assert_row_space_average_matches_the_grid(
        model, rho, default_test_set(model, random.Random(seed), count=3))
