"""Transverse operations on action models: fiber integrals through cocycles.

Heavier identities run on moderate grids; the acceptance suite repeats the
critical ones at the full resolutions.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from groupoid_measures.smooth import (
    ArrowFunction,
    ModelError,
    RotationPlaneModel,
    SaturationError,
    ScalingLineModel,
    TransverseDensityData,
    antipodal_circle_model,
    averaging,
    circle_self_model,
    cocycle_additivity_defect,
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
    s_fiber_integrate,
    t_fiber_integrate,
    weinstein_volume,
    weyl_check,
)
from groupoid_measures.smooth.models import TrivialActionModel
from groupoid_measures.density import Axis, Grid


@pytest.fixture(scope="module")
def rotation():
    return RotationPlaneModel(n_r=48, n_phi=64, r_lo=1.0, r_hi=2.0)


@pytest.fixture(scope="module")
def lebesgue(rotation):
    return TransverseDensityData.lebesgue(rotation)


def test_model_axioms_hold_on_samples(rotation):
    assert rotation.check_axioms(np.random.default_rng(0)) <= 1e-12
    assert antipodal_circle_model(64).check_axioms(np.random.default_rng(1)) <= 1e-12
    assert mirror_interval_model(65, 1.0).check_axioms(np.random.default_rng(2)) <= 1e-12


def test_s_fiber_integral_of_one_with_normalized_weight(rotation):
    rho = np.ones(rotation.grid.shape)
    u = ArrowFunction.from_base_function(rotation, np.ones(rotation.grid.shape))
    out = s_fiber_integrate(rotation, rho, u)
    assert np.max(np.abs(out - 1.0)) <= 1e-12


def test_s_fiber_integral_factorizes_group_independent_input(rotation):
    rng = np.random.default_rng(3)
    rho = 1.0 + 0.2 * rng.uniform(size=rotation.grid.shape)
    u1 = rng.standard_normal(rotation.grid.shape)
    out = s_fiber_integrate(rotation, rho,
                            ArrowFunction.from_base_function(rotation, u1))
    expected = u1 * fiber_volumes(rotation, rho)
    assert np.max(np.abs(out - expected)) <= 1e-12


def test_two_element_fiber_sums_cross_checked_by_hand():
    model = mirror_interval_model(9, 1.0)
    rho = np.linspace(1.0, 2.0, 9)
    u_slices = np.stack([np.arange(9.0), np.arange(9.0)[::-1]])
    u = ArrowFunction(model, lambda j: u_slices[j])
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
    rng = np.random.default_rng(4)
    u = ArrowFunction.random(rotation, rng)
    v = ArrowFunction.random(rotation, rng)
    c = 1.75
    comb = ArrowFunction(rotation, lambda j: c * u.slice(j) + v.slice(j))
    left = s_fiber_integrate(rotation, lebesgue.rho_values, comb)
    right = c * s_fiber_integrate(rotation, lebesgue.rho_values, u) \
        + s_fiber_integrate(rotation, lebesgue.rho_values, v)
    assert np.max(np.abs(left - right)) <= 1e-12


def test_invariance_defect_small_for_invariant_sigma(rotation, lebesgue):
    tests = default_test_set(rotation, np.random.default_rng(5))
    assert invariance_defect(rotation, lebesgue, tests) <= 1e-6
    assert inversion_invariance_check(rotation, lebesgue, tests) <= 1e-6


def test_invariance_defect_detects_angular_weight(rotation):
    bad = TransverseDensityData(rotation, lambda r, p: np.ones_like(r),
                                lambda r, p: r * (1.0 + 0.5 * np.cos(p)))
    tests = default_test_set(rotation, np.random.default_rng(5))
    assert invariance_defect(rotation, bad, tests) > 1e-2
    assert inversion_invariance_check(rotation, bad, tests) > 1e-2


def test_trivial_action_has_exact_zero_defect():
    grid = Grid([Axis(17, 0.0, 1.0)])
    model = TrivialActionModel(grid)
    sigma = TransverseDensityData(model, lambda x: np.ones_like(x),
                                  lambda x: 1.0 + x)
    tests = default_test_set(model, np.random.default_rng(6), count=4)
    assert invariance_defect(model, sigma, tests) == 0.0


def test_averaging_of_radial_section_returns_radial_profile(rotation, lebesgue):
    r = rotation.grid.meshgrid()[0]
    section = np.exp(-3 * (r - 1.5) ** 2)
    res = averaging(rotation, lebesgue.rho_values, section)
    assert res.constancy_defect <= 1e-14
    assert np.max(np.abs(res.values - section)) <= 1e-12  # rho is normalized
    assert res.base_values.shape == (rotation.grid.shape[0],)


def test_averaging_annihilates_shriek_differences(rotation, lebesgue):
    rng = np.random.default_rng(7)
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
    res1 = weyl_check(rotation, lebesgue, f,
                      cutoff=cutoff_construct(rotation, lebesgue.rho_values, seed1))
    res2 = weyl_check(rotation, lebesgue, f,
                      cutoff=cutoff_construct(rotation, lebesgue.rho_values, seed2))
    assert res1.rel_err <= 1e-6
    assert abs(res1.rhs - res2.rhs) <= 2e-6 * abs(res1.rhs)


def test_weyl_radial_integrand_against_polar_closed_form(rotation, lebesgue):
    # f(r) = r: integral of r * (Lebesgue) over the annulus = 2 pi (r_hi^3 - r_lo^3)/3
    r = rotation.grid.meshgrid()[0]
    res = weyl_check(rotation, lebesgue, r)
    closed = 2 * np.pi * (2.0 ** 3 - 1.0) / 3
    assert abs(res.lhs - closed) <= 1e-3 * closed  # trapezoid in r
    assert res.rel_err <= 1e-12


def test_weyl_volume_corollary(rotation, lebesgue):
    # f = 1: lhs is the total area, rhs integrates orbit volumes
    res = weyl_check(rotation, lebesgue, np.ones(rotation.grid.shape))
    assert res.rel_err <= 1e-12
    area = np.pi * (4.0 - 1.0)
    assert abs(res.lhs - area) <= 1e-10 * area


def test_weinstein_volume_antipodal_circle():
    model = antipodal_circle_model(256)
    sigma = TransverseDensityData(model, lambda t: 2.0 * np.ones_like(t),
                                  lambda t: np.ones_like(t))
    seed = 1.0 + 0.5 * np.cos(2 * model.grid.nodes(0))
    res = weinstein_volume(model, sigma,
                           cutoff=cutoff_construct(model, sigma.rho_values, seed))
    assert abs(res.lhs - np.pi) <= 1e-9
    assert res.rel_err <= 1e-6


def test_weinstein_volume_circle_self_action():
    model = circle_self_model(128)
    sigma = TransverseDensityData(model, lambda t: np.ones_like(t),
                                  lambda t: np.ones_like(t) / (2 * np.pi))
    res = weinstein_volume(model, sigma)
    assert abs(res.lhs - 1.0) <= 1e-12
    assert res.rel_err <= 1e-12


def test_weinstein_volume_trivial_group_returns_total_mass():
    grid = Grid([Axis(33, 0.0, 2.0)])
    model = TrivialActionModel(grid)
    sigma = TransverseDensityData(model, lambda x: np.ones_like(x),
                                  lambda x: np.ones_like(x))
    res = weinstein_volume(model, sigma)
    assert abs(res.lhs - 2.0) <= 1e-12


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
                                     np.random.default_rng(9)) <= 1e-9
    model = ScalingLineModel(max_power=2)
    sigma = TransverseDensityData(model, lambda x: np.ones_like(x),
                                  lambda x: 2.0 + np.sin(x))
    assert cocycle_additivity_defect(model, sigma,
                                     np.random.default_rng(10)) <= 1e-9


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
    from groupoid_measures.smooth import ModularCocycleData
    model = ScalingLineModel(max_power=2)
    sigma = TransverseDensityData(model, lambda x: np.ones_like(x),
                                  lambda x: np.ones_like(x))
    cocycle = ModularCocycleData(sigma)
    assert abs(cocycle(model.max_power + 1, (1.0,)) - np.log(2.0)) <= 1e-12
    assert cocycle.additivity_defect(np.random.default_rng(11)) <= 1e-9


def test_weinstein_threshold_error():
    model = circle_self_model(64)
    sigma = TransverseDensityData(model, lambda t: np.ones_like(t),
                                  lambda t: np.ones_like(t))
    with pytest.raises(ModelError, match="threshold"):
        weinstein_volume(model, sigma, volume_threshold=10.0)


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
    res = weyl_check(model, sigma, f)
    assert res.lhs == res.rhs


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
    for j in range(model.group_size):
        for flat in range(n):
            probe = np.zeros(n)
            probe[flat] = 1.0
            moved = model.pull(model.inv(j), probe.reshape(model.grid.shape))
            assert model.node_image(j, flat) == int(np.argmax(moved.ravel()))


def test_both_antipodal_spellings_build_the_same_node_maps():
    from groupoid_measures.smooth import build_model
    direct = build_model({"kind": "antipodal_circle", "params": {"n": 16}})
    preset = build_model({"kind": "finite_action",
                          "params": {"preset": "antipodal_circle", "n": 16}})
    assert len(direct.node_maps) == len(preset.node_maps) == 2
    for a, b in zip(direct.node_maps, preset.node_maps):
        assert np.array_equal(a, b)


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
        "separable": ArrowFunction.separable(model, coeffs, fields),
        "base": ArrowFunction.from_base_function(model, field),
        "target": ArrowFunction.from_target_function(model, field),
        "opaque": ArrowFunction(model, lambda j: opaque[j]),
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
    # FFT correlation runs and not only the equal-weight reduction
    rng = np.random.default_rng(seed)
    model = (circle_self_model(n) if n_r == 1
             else RotationPlaneModel(n_r=n_r, n_phi=n, r_lo=1.0, r_hi=2.0))
    weights = rng.uniform(-1.0, 1.0, size=n)
    values = rng.standard_normal(model.grid.shape)
    loop = sum(weights[j] * model.pull(j, values) for j in range(n))
    scale = float(np.sum(np.abs(weights)) * np.max(np.abs(values)))
    assert_close(model.pull_sum(weights, values), loop, scale)

    rho = 0.5 + rng.uniform(size=model.grid.shape)
    u = ArrowFunction.random(model, rng)
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
    """Reference: the random arrow function built on the full meshgrid."""
    coeffs = rng.standard_normal((rank, model.group_size))
    mesh = model.grid.meshgrid()
    fields = []
    for _ in range(rank):
        acc = np.ones(model.grid.shape)
        for axis, coord in enumerate(mesh):
            ax = model.grid.axes[axis]
            scaled = 2 * np.pi * (coord - ax.lo) / ax.length
            acc = acc * (1.0 + 0.5 * np.cos(scaled * int(rng.integers(1, 3))
                                            + float(rng.uniform(0, 2 * np.pi))))
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
    rng, ref_rng = np.random.default_rng(21), np.random.default_rng(21)
    for _ in range(4):
        u = ArrowFunction.random(model, rng)
        coeffs, fields = meshgrid_random(model, ref_rng)
        assert len(u.terms) == len(fields)
        for (a, b, e), c, f in zip(u.terms, coeffs, fields):
            assert e == 0 and b.shape == model.grid.shape
            assert np.array_equal(a, c) and np.array_equal(b, f)
    # the same draws in the same order: both generators are in one state
    assert rng.uniform() == ref_rng.uniform()


@pytest.mark.parametrize("make", FIELD_MODELS, ids=FIELD_IDS)
def test_default_probe_equals_the_meshgrid_construction(make):
    model = make()
    (a, b, e), = default_test_set(model, np.random.default_rng(22))[-1].terms
    assert e == 0 and np.array_equal(a, np.ones(model.group_size))
    assert np.array_equal(b, meshgrid_probe(model))


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
    model = (circle_self_model(n) if n_r == 1
             else RotationPlaneModel(n_r=n_r, n_phi=n, r_lo=1.0, r_hi=2.0))
    assert_mixed_integrals_match_the_loop(model, np.random.default_rng(seed))


def separate_defect_loops(model, sigma, tests):
    """Reference: the invariance and the inversion defect, each by its own loop."""
    invariance = inversion = 0.0
    for u in tests:
        s_part = s_fiber_integrate(model, sigma.rho_values, u)
        t_part = t_fiber_integrate(model, sigma.rho_values, u)
        invariance = max(invariance, abs(model.integrate(
            (s_part - t_part) * sigma.tau_values)))
    for u in tests:
        direct = model.integrate(
            s_fiber_integrate(model, sigma.rho_values, u) * sigma.tau_values)
        flipped = model.integrate(
            s_fiber_integrate(model, sigma.rho_values, u.inverted()) * sigma.tau_values)
        inversion = max(inversion, abs(direct - flipped))
    return invariance, inversion


@pytest.mark.parametrize("make,tau", [
    (lambda: RotationPlaneModel(n_r=24, n_phi=32, r_lo=1.0, r_hi=2.0), None),
    (lambda: RotationPlaneModel(n_r=24, n_phi=32, r_lo=1.0, r_hi=2.0),
     lambda r, phi: r * (1.0 + 0.3 * np.cos(phi))),
    (lambda: circle_self_model(31), lambda t: 1.0 + 0.5 * np.sin(t)),
    (lambda: antipodal_circle_model(16), lambda t: 1.0 + 0.5 * np.sin(t)),
    (lambda: mirror_interval_model(9, 1.0), lambda x: 1.0 + x),
], ids=["rotation-lebesgue", "rotation-angular", "circle_self", "antipodal", "mirror"])
def test_shared_defect_pair_equals_the_separate_loops(make, tau):
    model = make()
    sigma = (TransverseDensityData.lebesgue(model) if tau is None else
             TransverseDensityData(model, lambda *c: 1.0 + 0.0 * c[0], tau))
    tests = default_test_set(model, np.random.default_rng(24))
    pair = invariance_defects(model, sigma, tests)
    assert pair == separate_defect_loops(model, sigma, tests)
    assert invariance_defect(model, sigma, tests) == pair[0]
    assert inversion_invariance_check(model, sigma, tests) == pair[1]
