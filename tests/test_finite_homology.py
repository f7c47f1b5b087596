"""Nerve, boundary matrices and Betti numbers on the exact engine."""

import pytest

from groupoid_measures.finite import (
    boundary_matrix,
    cyclic_group_table,
    group_groupoid,
    homology,
    nerve,
    orbits,
    pair_groupoid,
    restrict_full_subgroupoid,
    unit_groupoid,
)
from groupoid_measures.finite import linalg_q
from test_finite_groupoid import SUITE, z2_swap_plus_fixed


def test_nerve_degree_zero_is_object_list():
    g = z2_swap_plus_fixed()
    assert nerve(g, 0) == [(0,), (1,), (2,)]


def test_nerve_counts_pair_groupoid():
    g = pair_groupoid(2)
    assert len(nerve(g, 1)) == 4
    # each arrow has exactly 2 composable successors
    assert len(nerve(g, 2)) == 8
    assert len(nerve(g, 3)) == 16


def test_nerve_unit_groupoid_has_only_unit_strings():
    g = unit_groupoid(5)
    assert len(nerve(g, 3)) == 5
    assert all(len(set(s)) == 1 for s in nerve(g, 3))


def test_nerve_is_lexicographically_ordered():
    g = pair_groupoid(3)
    for k in (1, 2, 3):
        strings = nerve(g, k)
        assert strings == sorted(strings)


def test_degree_one_boundary_is_source_minus_target():
    g = z2_swap_plus_fixed()
    mat = boundary_matrix(g, 1)
    for a in g.arrows():
        expected = [0] * g.n_objects
        expected[g.src[a]] += 1
        expected[g.tgt[a]] -= 1
        assert [mat[x][a] for x in g.objects()] == expected


@pytest.mark.parametrize("g", SUITE, ids=lambda g: g.name)
def test_boundary_squares_to_zero_up_to_degree_three(g):
    for k in (2, 3):
        product = linalg_q.matmul(boundary_matrix(g, k - 1), boundary_matrix(g, k))
        assert linalg_q.is_zero(product)


def test_unit_groupoid_boundaries_alternate():
    g = unit_groupoid(3)
    for k in (1, 2, 3, 4):
        mat = boundary_matrix(g, k)
        expected = 1 if k % 2 == 0 else 0
        assert all(mat[i][j] == (expected if i == j else 0)
                   for i in range(3) for j in range(3))


def test_betti_numbers_of_small_groupoids():
    assert homology(pair_groupoid(3), 2).betti() == [1, 0, 0]
    assert homology(unit_groupoid(4), 2).betti() == [4, 0, 0]
    z2 = group_groupoid(cyclic_group_table(2), "Z2")
    assert homology(z2, 3).betti() == [1, 0, 0, 0]
    z3 = group_groupoid(cyclic_group_table(3), "Z3")
    assert homology(z3, 2).betti() == [1, 0, 0]


def test_pair_groupoid_over_six_objects_has_the_homology_of_a_point():
    # 1296 strings in degree 3: a dense row reduction of d_3 takes seconds
    assert homology(pair_groupoid(6), 2).betti() == [1, 0, 0]


@pytest.mark.parametrize("g", SUITE, ids=lambda g: g.name)
def test_betti_zero_equals_orbit_count(g):
    assert homology(g, 1).degrees[0].betti == len(orbits(g))


def test_homology_report_fields_are_consistent():
    rep = homology(pair_groupoid(2), 2)
    for d in rep.degrees:
        assert d.nerve_size == len(nerve(pair_groupoid(2), d.degree))
        assert d.betti >= 0


def test_morita_restriction_preserves_homology():
    g = pair_groupoid(3)
    sub = restrict_full_subgroupoid(g, [0])
    assert homology(g, 2).betti() == homology(sub, 2).betti() == [1, 0, 0]

    two_orbit = z2_swap_plus_fixed()
    sub2 = restrict_full_subgroupoid(two_orbit, [0, 2])
    assert homology(two_orbit, 2).betti() == homology(sub2, 2).betti()


def test_homology_enumerates_each_nerve_once(monkeypatch):
    import importlib
    module = importlib.import_module("groupoid_measures.finite.homology")
    degrees = []
    enumerate_nerve = module.nerve

    def counted(g, k):
        degrees.append(k)
        return enumerate_nerve(g, k)

    monkeypatch.setattr(module, "nerve", counted)
    module.homology(pair_groupoid(3), 2)
    assert sorted(degrees) == [0, 1, 2, 3]


@pytest.mark.parametrize("g", [pair_groupoid(3), z2_swap_plus_fixed(),
                               group_groupoid(cyclic_group_table(3))])
def test_a_larger_kmax_report_holds_every_smaller_one(g):
    full = homology(g, 3)
    for k in range(4):
        assert homology(g, k).degrees == full.degrees[:k + 1]
