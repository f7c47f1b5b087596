"""Liouville totals, DH mass, affine measures and their volume identities."""

import json

import numpy as np
import pytest

from groupoid_measures.density import Axis, DensityField, Grid, integrate
from groupoid_measures.symplectic import (
    LeafFamilyModel,
    SymplecticModelError,
    SymplecticPairModel,
    affine_measure,
    affine_volume,
    canonical_base_density,
    dh_total_mass_two_ways,
    dh_weyl_check,
    leaf_family_from_doc,
    leaf_family_from_json,
    liouville_density,
)


def sphere_family(iota=1, n=65, area_scale=4 * np.pi):
    base = Grid([Axis(n, 1.0, 2.0)])
    return LeafFamilyModel(base,
                           lambda t: area_scale * t,
                           lambda t: area_scale + 0 * t,
                           iota=iota)


def test_sphere_liouville_total_is_area():
    model = SymplecticPairModel.sphere()
    total = integrate(liouville_density(model))
    assert abs(total - 4 * np.pi) <= 1e-6 * 4 * np.pi


def test_scaled_sphere_area_is_linear():
    for scale in (0.5, 3.0):
        model = SymplecticPairModel.sphere(area=scale * 4 * np.pi)
        total = integrate(liouville_density(model))
        assert abs(total - scale * 4 * np.pi) <= 1e-12 * scale * 4 * np.pi


def test_torus_cell_liouville_total_is_one():
    assert abs(integrate(liouville_density(SymplecticPairModel.torus_cell())) - 1.0) \
        <= 1e-12


def test_dh_mass_two_paths_sphere():
    res = dh_total_mass_two_ways(SymplecticPairModel.sphere())
    assert res.rel_err <= 1e-5
    assert abs(res.lhs - 16 * np.pi ** 2) <= 1e-5 * 16 * np.pi ** 2


def test_dh_mass_torus_cell():
    res = dh_total_mass_two_ways(SymplecticPairModel.torus_cell())
    assert abs(res.lhs - 1.0) <= 1e-12


def test_affine_measure_total_for_linear_area():
    mu = affine_measure(sphere_family())
    assert abs(mu.total_mass() - 4 * np.pi) <= 1e-9 * 4 * np.pi


def test_affine_measure_scales_with_area():
    base_total = affine_measure(sphere_family()).total_mass()
    scaled_total = affine_measure(sphere_family(area_scale=8 * np.pi)).total_mass()
    assert abs(scaled_total - 2 * base_total) <= 1e-12 * scaled_total


def test_affine_measure_is_positive_and_linear():
    mu = affine_measure(sphere_family())
    rng = np.random.default_rng(0)
    mu.check_linearity(rng)
    mu.check_positivity(rng)
    assert mu(np.zeros(mu.grid.shape)) == 0.0


def test_degenerate_lattice_is_rejected():
    family = sphere_family()
    with pytest.raises(SymplecticModelError, match="degenerate"):
        affine_measure(family, lattice_density=np.zeros(family.base.shape))


def test_dh_weyl_identity_and_localization():
    family = sphere_family()
    t = family.base.nodes(0)
    profile = np.exp(-4 * (t - 1.5) ** 2)
    res = dh_weyl_check(family,
                        lambda i: np.full(family.leaf.grid.shape, profile[i]))
    assert res.rel_err <= 1e-6

    ones = dh_weyl_check(family, lambda i: np.ones(family.leaf.grid.shape))
    # closed form: integral of A(t) |A'(t)| dt = 16 pi^2 integral of t dt
    closed = 16 * np.pi ** 2 * (2.0 ** 2 - 1.0) / 2
    assert abs(ones.lhs - closed) <= 1e-9 * closed


def test_dh_weyl_scaling_under_doubled_iota():
    fam1, fam2 = sphere_family(iota=1), sphere_family(iota=2)
    res1 = dh_weyl_check(fam1, lambda i: np.ones(fam1.leaf.grid.shape))
    res2 = dh_weyl_check(fam2, lambda i: np.ones(fam2.leaf.grid.shape))
    assert res1.rel_err <= 1e-12 and res2.rel_err <= 1e-12
    assert abs(res1.lhs - res2.lhs) <= 1e-12 * abs(res1.lhs)


def test_affine_volume_identity_and_iota_halving():
    res1 = affine_volume(sphere_family(iota=1))
    res2 = affine_volume(sphere_family(iota=2))
    assert res1.rel_err <= 1e-6 and res2.rel_err <= 1e-6
    assert abs(res1.lhs - 4 * np.pi) <= 1e-6 * 4 * np.pi
    assert abs(res2.lhs - 0.5 * res1.lhs) <= 1e-12 * res1.lhs


def test_affine_volume_single_leaf_degenerates_to_point_mass():
    base = Grid([Axis(2, 1.0, 1.0 + 1e-9)])
    family = LeafFamilyModel(base, lambda t: 4 * np.pi + 0 * t,
                             lambda t: 1.0 + 0 * t, iota=1)
    res = affine_volume(family)
    # base mass m with unit lattice density
    assert abs(res.lhs - base.axes[0].length) <= 1e-12 * base.axes[0].length


def test_affine_volume_refinement_order_against_closed_form():
    # exponential area family: trapezoid error is genuinely O(h^2)
    closed = 4 * np.pi * (np.exp(2.0) - np.exp(1.0))
    errors = []
    for n in (17, 33):
        base = Grid([Axis(n, 1.0, 2.0)])
        family = LeafFamilyModel(base, lambda t: 4 * np.pi * np.exp(t),
                                 lambda t: 4 * np.pi * np.exp(t), iota=1)
        errors.append(abs(affine_volume(family).lhs - closed))
    assert np.log2(errors[0] / errors[1]) >= 1.8


def test_leaf_family_json_loader():
    doc = ('{"B": {"lo": 1.0, "hi": 2.0, "n": 33}, "area": "4*pi*t", '
           '"area_derivative": "4*pi + 0*t", "iota": 2, "leaf": "sphere"}')
    family = leaf_family_from_json(doc)
    assert family.iota == 2
    assert abs(affine_measure(family).total_mass() - 4 * np.pi) <= 1e-9
    with pytest.raises(SymplecticModelError, match="not allowed"):
        leaf_family_from_json(doc.replace("4*pi*t", "__import__('os')"))


def reference_leaf_totals(family):
    """Per-node totals the way every check computed them before caching:
    the template integrated again for each node."""
    leaf = family.leaf
    return np.array([
        integrate(DensityField(leaf.grid, leaf.area_density.values
                               * (family.areas[i] / integrate(leaf.area_density))))
        for i in range(family.base.shape[0])])


@pytest.mark.parametrize("leaf", ["sphere", "torus"])
@pytest.mark.parametrize("n", [9, 17, 33])
@pytest.mark.parametrize("iota", [1, 2, 3])
def test_cached_leaf_totals_equal_the_per_node_integrals_bit_for_bit(leaf, n, iota):
    family = leaf_family_from_doc({"B": {"lo": 0.7, "hi": 1.9, "n": n},
                                   "area": "3.5*t + sin(t)", "area_derivative": "3.5 + cos(t)",
                                   "iota": iota, "leaf": leaf, "leaf_nodes": 16})
    totals = family.leaf_totals
    assert np.array_equal(totals, reference_leaf_totals(family))
    assert np.array_equal(totals, [integrate(family.leaf_liouville(i)) for i in range(n)])
    with pytest.raises(ValueError, match="read-only"):
        totals[0] = 1.0


def test_iota_twin_shares_the_leaves_and_matches_a_fresh_family():
    family = sphere_family(iota=1, n=17)
    twin = family.with_iota(2)
    fresh = sphere_family(iota=2, n=17)
    assert family.iota == 1 and twin.iota == 2
    assert twin.leaf is family.leaf and twin.leaf_totals is family.leaf_totals
    assert affine_volume(twin) == affine_volume(fresh)
    assert np.array_equal(canonical_base_density(twin), canonical_base_density(fresh))
    ones = lambda fam: (lambda i: np.ones(fam.leaf.grid.shape))
    assert dh_weyl_check(twin, ones(twin)) == dh_weyl_check(fresh, ones(fresh))
    assert affine_measure(twin).total_mass() == affine_measure(fresh).total_mass()
    with pytest.raises(SymplecticModelError, match="component count"):
        family.with_iota(0)


def test_leaf_family_parser_takes_samples_leaf_nodes_and_defaults():
    t = np.linspace(1.0, 2.0, 5)
    family = leaf_family_from_json(json.dumps(
        {"B": {"lo": 1, "hi": 2, "n": 5}, "area": list(2 * t),
         "area_derivative": [2] * 5, "leaf": "torus", "leaf_nodes": 8}))
    assert family.leaf.grid.shape == (8, 8)
    assert np.array_equal(family.areas, 2 * t)
    assert abs(affine_measure(family).total_mass() - 2.0) <= 1e-12
    default = leaf_family_from_doc({})
    assert default.base.shape == (65,) and default.iota == 1
    assert default.leaf.grid.shape == (64, 33)
    assert np.array_equal(default.areas, 4 * np.pi * default.base.nodes(0))


@pytest.mark.parametrize("change, message", [
    ({"iota": 0}, "component count"),
    ({"iota": 1.5}, "iota"),
    ({"leaf": "cube"}, "unknown leaf template"),
    ({"area": "-t"}, "positive"),
    ({"area": "1/(t-1)"}, "finite"),
    ({"area_derivative": "log(t-1)"}, "finite"),
    ({"area": "os.getcwd()"}, "not allowed"),
    ({"area": [1, 2, 3]}, "one sample per base node"),
    ({"area": ["a"] * 9}, "list of numbers"),
    ({"area": 7}, "one sample per base node"),
    ({"B": {"lo": 1, "hi": 2, "n": 1}}, "too few nodes"),
    ({"B": {"lo": 2, "hi": 1, "n": 9}}, "hi > lo"),
    ({"B": {"hi": 2, "n": 9}}, "missing 'lo'"),
    ({"B": {"lo": "a", "hi": 2, "n": 9}}, "numbers lo and hi"),
    ({"B": {"lo": 1, "hi": 2, "n": "x"}}, "must be an integer"),
    ({"B": [1, 2, 9]}, "must be an object"),
    ({"leaf_nodes": 1}, "at least 2"),
])
@pytest.mark.filterwarnings("ignore::RuntimeWarning")
def test_leaf_family_parser_rejects_malformed_fields(change, message):
    doc = dict({"B": {"lo": 1.0, "hi": 2.0, "n": 9}, "area": "4*pi*t",
                "area_derivative": "4*pi + 0*t"}, **change)
    with pytest.raises(SymplecticModelError, match=message):
        leaf_family_from_doc(doc)
